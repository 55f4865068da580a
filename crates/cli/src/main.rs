//! `tsv` — inspect, convert, multiply and traverse sparse matrices with
//! the tiled algorithms.
//!
//! ```text
//! tsv info    <matrix>
//! tsv spmspv  <matrix> [--sparsity S] [--seed N] [--kernel auto|row|col]
//!             [--backend model|native[:threads]] [--batch K]
//!             [--sanitize] [--verify-plan]
//!             [--trace-out F] [--metrics-out F] [--report]
//! tsv bfs     <matrix> [--source V] [--algo tile|gunrock|gswitch|enterprise]
//!             [--backend model|native[:threads]] [--sanitize] [--verify-plan]
//!             [--trace-out F] [--metrics-out F] [--report]
//! tsv convert <in> <out.mtx>
//!
//! Each subcommand accepts only the flags listed for it, and every value
//! flag needs its value: anything else is a usage error (exit 1). `--seed`,
//! `--source` and `--batch` take unsigned integers.
//!
//! `--backend` selects how the kernels' warps run: `model` (the default)
//! runs every launch on the calling thread; `native[:threads]` splits a
//! launch whose estimated work reaches `tsv_simt::SPLIT_WORK` (2^16 tile
//! entries' worth) over `threads` threads, the caller and parked helper
//! threads (one per hardware thread without a count), and so does an
//! SpMSpV multiply's side-COO pass once its estimate, in the same unit,
//! reaches it. Everything smaller runs on
//! the caller. Both count the same work, and PlusTimes results are
//! bit-identical across backends and thread counts.
//!
//! `--batch K` multiplies `K` random frontiers (seeds `seed..seed+K`) as
//! one batch, printing per-lane rows with the kernel each lane ran: the
//! pull lanes share one tile traversal and each push lane runs its own
//! column-tile pass (`--kernel` applies per lane).
//!
//! `--sanitize` runs every kernel launch under the race sanitizer; any
//! write-write or read-write conflict between warps not mediated by an
//! atomic is reported and the command exits nonzero. It works on either
//! backend.
//!
//! `--verify-plan` runs the plan-time static race verifier before any
//! kernel launches: it extracts symbolic read/write footprints for every
//! launch shape the plan may run and discharges write-disjointness,
//! merge-determinism and workspace-aliasing obligations, printing a
//! per-obligation verdict (`proved`, `needs-atomics` or `unknown`).
//! Malformed launch geometry is reported as an error instead of a
//! mid-kernel panic. Works on every backend — the proof is about the
//! plan, not the substrate.
//!
//! `--trace-out F` writes a Chrome Trace Format document to `F` (open in
//! Perfetto / chrome://tracing) and a machine-readable run summary to
//! `F` with extension `.summary.json`. If the trace ring overflowed, the
//! summary's `trace.events_dropped` counts the evicted spans and a
//! warning is printed on stderr.
//!
//! `--metrics-out F` writes the run's trace as Prometheus text
//! exposition to `F`: per-kernel launch, warp and lane-step counters (the
//! `--report` rows), kernel and phase duration histograms, and the count
//! of events a wrapped trace ring dropped. Like `--trace-out` and
//! `--report`, it requires `bfs --algo tile`.
//!
//! `--report` appends a roofline utilization table: each kernel's
//! achieved memory bandwidth and flop rate as fractions of the device
//! peaks, and whether the cost model says it is memory-, compute-,
//! atomic- or overhead-bound.
//!
//! <matrix>: a .mtx file, `suite:<name>[:scale]`, or `gen:<family>:<n>[...]`
//! (see `tsv_cli::source`).
//! ```

use tsv_cli::{cmd_bfs, cmd_info, cmd_spmspv, load_matrix, parse_backend, CliError};
use tsv_core::spmspv::KernelChoice;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Value flags both tiled-engine subcommands (`spmspv`, `bfs`) take.
const ENGINE_VALUES: [&str; 3] = ["--backend", "--trace-out", "--metrics-out"];
/// Switches both tiled-engine subcommands take.
const ENGINE_SWITCHES: [&str; 3] = ["--sanitize", "--verify-plan", "--report"];

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "info" => {
            let p = Parsed::new(cmd, rest, 1, &[], &[])?;
            let a = load_matrix(p.positional[0])?;
            print!("{}", cmd_info(&a));
        }
        "spmspv" => {
            let values = [
                &["--sparsity", "--seed", "--kernel", "--batch"][..],
                &ENGINE_VALUES,
            ]
            .concat();
            let p = Parsed::new(cmd, rest, 1, &values, &ENGINE_SWITCHES)?;
            let sparsity = match p.value("--sparsity") {
                None => 0.01,
                Some(v) => v.parse::<f64>().map_err(|_| {
                    CliError::Usage(format!("--sparsity needs a number, got {v:?}"))
                })?,
            };
            // A fraction of the vector's length: anything outside [0, 1]
            // (NaN included) is a usage error, not a generator panic.
            if !(0.0..=1.0).contains(&sparsity) {
                return Err(CliError::Usage(format!(
                    "--sparsity must be a fraction in [0, 1], got {sparsity}"
                )));
            }
            let seed = p.unsigned::<u64>("--seed")?.unwrap_or(1);
            let kernel = match p.value("--kernel") {
                None | Some("auto") => KernelChoice::Auto,
                Some("row") => KernelChoice::RowTile,
                Some("col") => KernelChoice::ColTile,
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "unknown kernel {other:?} (auto|row|col)"
                    )))
                }
            };
            let backend = p.value("--backend").map(parse_backend).transpose()?;
            let batch = match p.value("--batch") {
                None => 0,
                Some(v) => v.parse::<usize>().ok().filter(|&b| b > 0).ok_or_else(|| {
                    CliError::Usage(format!("--batch needs a positive integer, got {v:?}"))
                })?,
            };
            let a = load_matrix(p.positional[0])?;
            print!(
                "{}",
                cmd_spmspv(
                    &a,
                    sparsity,
                    seed,
                    kernel,
                    backend.unwrap_or_default(),
                    batch,
                    p.switch("--sanitize"),
                    p.path("--trace-out").as_deref(),
                    p.path("--metrics-out").as_deref(),
                    p.switch("--report"),
                    p.switch("--verify-plan"),
                )?
            );
        }
        "bfs" => {
            let values = [&["--source", "--algo"][..], &ENGINE_VALUES].concat();
            let p = Parsed::new(cmd, rest, 1, &values, &ENGINE_SWITCHES)?;
            let source = p.unsigned::<usize>("--source")?.unwrap_or(0);
            let algo = p.value("--algo").unwrap_or("tile");
            let backend = p.value("--backend").map(parse_backend).transpose()?;
            let a = load_matrix(p.positional[0])?;
            print!(
                "{}",
                cmd_bfs(
                    &a,
                    source,
                    algo,
                    backend.unwrap_or_default(),
                    p.switch("--sanitize"),
                    p.path("--trace-out").as_deref(),
                    p.path("--metrics-out").as_deref(),
                    p.switch("--report"),
                    p.switch("--verify-plan"),
                )?
            );
        }
        "convert" => {
            let p = Parsed::new(cmd, rest, 2, &[], &[])?;
            let out = p.positional[1];
            let a = load_matrix(p.positional[0])?;
            tsv_sparse::io::write_matrix_market(std::path::Path::new(out), &a.to_coo())?;
            println!(
                "wrote {} ({} x {}, {} nnz)",
                out,
                a.nrows(),
                a.ncols(),
                a.nnz()
            );
        }
        "--help" | "-h" | "help" => println!("{USAGE}"),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command {other:?}\n{USAGE}"
            )))
        }
    }
    Ok(())
}

const USAGE: &str = "usage:
  tsv info    <matrix>
  tsv spmspv  <matrix> [--sparsity S] [--seed N] [--kernel auto|row|col]
              [--backend model|native[:threads]] [--batch K]
              [--sanitize] [--verify-plan]
              [--trace-out F] [--metrics-out F] [--report]
  tsv bfs     <matrix> [--source V] [--algo tile|gunrock|gswitch|enterprise]
              [--backend model|native[:threads]] [--sanitize] [--verify-plan]
              [--trace-out F] [--metrics-out F] [--report]
  tsv convert <matrix> <out.mtx>

Each subcommand accepts only its own flags, and a value flag needs its
value. --seed, --source and --batch take unsigned integers.

--backend selects how the warps run: model (default) runs every launch
on the calling thread; native[:threads] splits a launch of at least
2^16 estimated tile entries' worth of work over that many threads (one
per hardware thread without a count) and runs smaller ones on the
caller. Both count the same work, and PlusTimes results are
bit-identical across both.

--batch K multiplies K random frontiers (seeds seed..seed+K) as one
batch, printing one row per query lane with the kernel it ran: pull lanes
share one tile traversal, push lanes run their own column-tile pass
(--kernel applies per lane). PlusTimes lanes are bit-identical to K
single multiplies.

--sanitize runs every kernel launch under the race sanitizer; any
write-write or read-write conflict is reported and fails the command.
It works on either backend.

--verify-plan runs the plan-time static race verifier before launch:
symbolic footprints per launch shape, with write-disjointness,
merge-determinism and workspace-aliasing verdicts printed per plan.
Malformed launch geometry becomes an error instead of a panic. Works
on every backend.

--trace-out writes Chrome Trace JSON to F plus a run summary to
F.summary.json (load the trace in Perfetto or chrome://tracing).

--metrics-out writes the run's trace as Prometheus text exposition to
F: per-kernel launches, warps and lane steps (the --report rows),
kernel and phase duration histograms. bfs needs --algo tile for it.

--report appends a per-kernel roofline utilization table (achieved
GB/s and GFLOP/s vs device peaks, bound classification).

<matrix>: a .mtx file, suite:<name>[:tiny|small|medium], or
          gen:<family>:<n>[:<param>[:<seed>]]
          families: banded grid geometric rmat web uniform";

/// One subcommand's command line, checked against the flags it accepts:
/// its positional arguments, and each accepted flag given, with its value.
struct Parsed<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Parsed<'a> {
    /// Splits `args` into exactly `n_positional` positional arguments and
    /// the flags of `values` (each followed by its value) and `switches`.
    /// An unknown flag, a value flag without its value, or a missing or
    /// extra positional argument is a usage error naming `cmd`.
    fn new(
        cmd: &str,
        args: &'a [String],
        n_positional: usize,
        values: &[&str],
        switches: &[&str],
    ) -> Result<Self, CliError> {
        let mut p = Self {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if values.contains(&arg) {
                let v = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| CliError::Usage(format!("{arg} needs a value")))?;
                p.flags.push((arg, Some(v)));
            } else if switches.contains(&arg) {
                p.flags.push((arg, None));
            } else if arg.starts_with("--") {
                return Err(CliError::Usage(format!(
                    "unknown flag {arg:?} for tsv {cmd} (see tsv help)"
                )));
            } else {
                p.positional.push(arg);
            }
        }
        if p.positional.len() != n_positional {
            return Err(CliError::Usage(format!(
                "tsv {cmd} takes {n_positional} argument(s), got {:?}\n{USAGE}",
                p.positional
            )));
        }
        Ok(p)
    }

    /// The value of flag `name`, if given (the last one when repeated).
    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|&&(f, _)| f == name)
            .and_then(|&(_, v)| v)
    }

    /// Whether switch `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|&(f, _)| f == name)
    }

    /// The value of flag `name` as an unsigned integer of type `T`.
    fn unsigned<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.value(name)
            .map(|v| {
                v.parse::<T>().map_err(|_| {
                    CliError::Usage(format!("{name} needs an unsigned integer, got {v:?}"))
                })
            })
            .transpose()
    }

    /// The value of flag `name` as a path.
    fn path(&self, name: &str) -> Option<std::path::PathBuf> {
        self.value(name).map(std::path::PathBuf::from)
    }
}
