//! The strict command line: every flag exactly once, nothing defaulted.

use crate::workload::{Workload, WORKLOADS};

/// Longest measurement `--seconds` accepts: a run must end within
/// 180 s, set-up, reference run and replay included.
pub const MAX_SECONDS: u64 = 60;

/// Usage line printed with every command-line error.
pub const USAGE: &str =
    "usage: hyscale-benchmark --workload <name> --seed <u64> --seconds <1-60> --trace <0|1>";

/// A checked command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the synthesized inputs and of training.
    pub seed: u64,
    /// Seconds of measured epochs.
    pub seconds: u64,
    /// Whether to replay with tracing and print the per-layer metrics.
    pub trace: bool,
}

/// Parse the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let name = workload.ok_or("missing --workload")?;
    let workload = Workload::by_name(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let seed = number("--seed", seed)?;
    let seconds = number("--seconds", seconds)?;
    if !(1..=MAX_SECONDS).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..={MAX_SECONDS}"));
    }
    let trace = match trace.as_deref() {
        Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        None => return Err("missing --trace".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A decimal `u64` of digits only (`str::parse` would also take a `+`).
fn number(flag: &str, value: Option<String>) -> Result<u64, String> {
    let value = value.ok_or_else(|| format!("missing {flag}"))?;
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("malformed {flag} `{value}`"));
    }
    value
        .parse()
        .map_err(|_| format!("{flag} `{value}` is out of range"))
}
