//! `hyscale-benchmark`: run one workload for one seed and print the
//! result as the last line of stdout. See `README.md`.

use hyscale_benchmark::cli::{self, Args};
use hyscale_benchmark::run::{self, ATTEMPTED};
use hyscale_benchmark::{metrics, replay};
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A run still going by then is reported failed: runs must end within
/// 180 s.
const DEADLINE: Duration = Duration::from_secs(170);

/// Set by whichever of the main thread and the watchdog prints the
/// result line first.
static REPORTED: AtomicBool = AtomicBool::new(false);

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hyscale-benchmark: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    // Detached on purpose: it either reports a stuck run and ends the
    // process, or ends with it.
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("hyscale-benchmark: still running after {DEADLINE:?}");
        if report_failure() {
            std::process::exit(1);
        }
    });
    match panic::catch_unwind(AssertUnwindSafe(|| execute(&args))) {
        Ok((line, correct)) => {
            if !REPORTED.swap(true, Ordering::SeqCst) {
                println!("{line}");
            }
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(_) => {
            report_failure();
            ExitCode::FAILURE
        }
    }
}

/// Print a result that counts every attempted iteration failed, unless
/// a result was already printed; returns whether it printed.
fn report_failure() -> bool {
    if REPORTED.swap(true, Ordering::SeqCst) {
        return false;
    }
    let attempted = ATTEMPTED.load(Ordering::SeqCst).max(1);
    println!("{}", metrics::result_line(false, attempted, attempted, &[]));
    true
}

/// Run the workload and build its result line; also returns whether
/// every check passed.
fn execute(args: &Args) -> (String, bool) {
    let w = &args.workload;
    eprintln!(
        "{}: seed {}, {} s measured, trace {}, {} cpu(s)",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let untraced = run::run_untraced(w, args.seed, args.seconds as f64);
    let reference = run::reference(w, args.seed);
    eprintln!(
        "weights digest {:016x}, serial reference {:016x}, loss {} after the first epoch",
        untraced.digest,
        reference.digest,
        untraced.check_epoch().loss
    );
    eprintln!(
        "measured epoch walls {:.4?} s; set-ups {:.4?} s",
        untraced.measured_wall_s(),
        untraced.setup_s
    );
    let mut failures = run::check(w, &untraced, &reference);
    let replayed = args.trace.then(|| {
        let r = replay::replay(w, args.seed, &untraced);
        failures.extend(replay::check(&untraced, &r));
        r
    });
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let attempted = ATTEMPTED.load(Ordering::SeqCst);
    let failed = if failures.is_empty() { 0 } else { attempted };
    let metrics = match &replayed {
        Some(r) => metrics::per_layer(w, &untraced, &reference, r),
        None => metrics::end_to_end(&untraced, 1.0 - failed as f64 / attempted as f64),
    };
    for m in &metrics {
        eprintln!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = failures.is_empty();
    (
        metrics::result_line(correct, attempted, failed, &metrics),
        correct,
    )
}
