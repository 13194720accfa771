//! Command-line entry of the repository benchmark; see the library docs.

use perfbench::workloads::{self, Params, Scale};
use std::process::ExitCode;

struct Args {
    workload: String,
    params: Params,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        params: Params {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            scale: Scale::Full,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The native kernel tier compiles C in the temporary directory: keep
    // it inside the benchmark's own output directory, and remove what
    // this process left there when it ends.
    let tmp = format!("{}/tmp", workloads::out_dir());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {tmp}: {e}");
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);
    let result = workloads::run(&args.workload, &args.params);
    let _ = std::fs::remove_dir_all(format!("{tmp}/seamless-native-{}", std::process::id()));
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = args.params.trace;
    for line in report.lines(trace) {
        println!("{line}");
    }
    println!("{}", report.json(trace));
    if report.correct(trace) {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: outputs were wrong or operations failed; see MISMATCH lines");
        ExitCode::FAILURE
    }
}
