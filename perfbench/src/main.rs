//! Layered serving benchmark for the PEANUT reproduction.
//!
//! For one workload and seed, the binary generates the inputs, builds the
//! system through the public APIs of the program's crates, drives it from
//! this single thread (a closed loop, an open loop at the nominal rate,
//! then a ladder of offered rates), checks the answers, and prints one
//! JSON result record as the last line of its output. With `--trace 1`
//! it records a span around every call into the program, replays the
//! computed requests through the lower layers, and reports the per-layer
//! split instead of the end-to-end metrics.
//!
//! `perfbench/run.py` is the entry point: it builds this binary, passes
//! the frozen workload parameters of `perfbench/spec.json`, and adds the
//! host record.
//!
//! Exit codes: 0 with all answers correct; 1 when the correctness gate
//! failed (the record is still printed); 2 for bad arguments or a run that
//! could not be set up; 3 when the input fingerprint guard refuses.

mod common;
mod fleet;
mod json;
mod rng;
mod sessions;
mod skewed;
mod stats;
mod trace;

use common::{Drive, Fingerprint, Gate, Guard, Metrics, Params};
use json::J;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// A finished run, ready to print.
pub struct Report {
    json: J,
    correct: bool,
}

impl Report {
    fn fingerprint(fp: Fingerprint) -> Report {
        Report {
            json: J::obj([("fingerprint", fp.json())]),
            correct: true,
        }
    }

    fn new(p: &Params, mut m: Metrics, gate: Gate, d: &Drive, tr: Tracer) -> Report {
        let mut extra = Vec::new();
        if p.trace {
            m.put(
                "trace.overhead_frac",
                d.closed.trace_overhead,
                "fraction",
                d.closed.requests,
            );
            let spans = tr.spans();
            let covered = trace::coverage(spans, |s| s.name.starts_with("phase."));
            m.put(
                "trace.coverage_frac",
                covered,
                "fraction",
                spans.len() as u64,
            );
            let file = p
                .out_dir
                .join(format!("spans-{}-seed{}.json", p.workload, p.seed));
            let written = std::fs::write(&file, trace::spans_json(spans).to_string())
                .map(|_| J::str(file.display().to_string()))
                .unwrap_or_else(|e| J::str(format!("not written: {e}")));
            extra.push(("spans_file".to_string(), written));
            extra.push(("self_time".to_string(), trace::summary_json(spans)));
        }
        let correct = gate.failed == 0;
        let rung = |r: &common::Open| {
            J::obj([
                ("offered_qps", J::Num(r.offered)),
                ("achieved_qps", J::Num(r.achieved())),
                ("requests", J::Int(r.requests)),
                ("latency_p50_ms", J::Num(r.p(0.5))),
                ("latency_p99_ms", J::Num(r.p(0.99))),
                ("windowed_p50_ms", J::Num(r.windowed(0.5).0)),
                ("windowed_p99_ms", J::Num(r.windowed(0.99).0)),
                ("windows", J::Int(r.windowed(0.5).1 as u64)),
                ("tail_queue_wait_ms", J::Num(r.tail_wait_ms)),
                ("peak_backlog", J::Int(r.peak_backlog as u64)),
                ("abandoned", J::Int(r.abandoned)),
                ("meets_limit", J::Bool(r.meets(p.limit_ms))),
            ])
        };
        let phases = J::obj([
            (
                "closed",
                J::obj([
                    ("requests", J::Int(d.closed.requests)),
                    ("wall_s", J::Num(d.closed.wall.as_secs_f64())),
                    (
                        "window_qps",
                        J::Arr(d.closed.window_qps().into_iter().map(J::Num).collect()),
                    ),
                    ("batch_units", J::Int(p.batch as u64)),
                ]),
            ),
            ("nominal", rung(&d.nominal)),
            ("ladder", J::Arr(d.rungs.iter().map(rung).collect())),
        ]);
        let mut fields = vec![
            ("workload".to_string(), J::str(&p.workload)),
            ("seed".to_string(), J::Int(p.seed)),
            ("trace".to_string(), J::Bool(p.trace)),
            ("workers".to_string(), J::Int(common::WORKERS as u64)),
            ("correct".to_string(), J::Bool(correct)),
            ("attempted".to_string(), J::Int(gate.attempted)),
            ("failed".to_string(), J::Int(gate.failed)),
            (
                "checked_against_reference".to_string(),
                J::Int(gate.checked_against_reference),
            ),
            (
                "first_violation".to_string(),
                gate.first_violation.map_or(J::Null, J::Str),
            ),
            ("metrics".to_string(), m.json()),
            ("phases".to_string(), phases),
        ];
        fields.extend(extra);
        Report {
            json: J::Obj(fields),
            correct,
        }
    }
}

fn parse(args: &[String]) -> Result<Params, String> {
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).cloned()
    };
    fn num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or(format!("{flag} is required"))?;
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    let guard = match get("--guard-seed") {
        None => None,
        Some(seed) => Some(Guard {
            seed: num("--guard-seed", Some(seed))?,
            structure: get("--guard-structure").ok_or("--guard-structure is required")?,
            stream_hash: get("--guard-hash").ok_or("--guard-hash is required")?,
        }),
    };
    let ladder = get("--ladder")
        .unwrap_or_default()
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("--ladder: bad rate {s:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let fingerprint_only = args.iter().any(|a| a == "--fingerprint");
    let p = Params {
        workload: get("--workload").ok_or("--workload is required")?,
        seed: num("--seed", get("--seed"))?,
        seconds: if fingerprint_only {
            0.0
        } else {
            num("--seconds", get("--seconds"))?
        },
        trace: get("--trace").as_deref() == Some("1"),
        rate: if fingerprint_only {
            0.0
        } else {
            num("--rate", get("--rate"))?
        },
        limit_ms: if fingerprint_only {
            0.0
        } else {
            num("--limit-ms", get("--limit-ms"))?
        },
        batch: num("--batch", get("--batch"))?,
        warmup: num("--warmup", get("--warmup"))?,
        setup_reps: num("--setup-reps", get("--setup-reps"))?,
        out_dir: PathBuf::from(get("--out-dir").unwrap_or_else(|| ".bench_out".into())),
        ladder,
        guard,
        fingerprint_only,
    };
    if !fingerprint_only
        && (p.ladder.is_empty() || p.seconds <= 0.0 || p.rate <= 0.0 || p.batch == 0)
    {
        return Err("--ladder, --seconds, --rate and --batch must be positive".into());
    }
    Ok(p)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&p.out_dir) {
        eprintln!("perfbench: {}: {e}", p.out_dir.display());
        return ExitCode::from(2);
    }
    let run = match p.workload.as_str() {
        "skewed-zipf" => skewed::run(&p),
        "evidence-sessions" => sessions::run(&p),
        "fleet-drift" => fleet::run(&p),
        other => Err(format!("unknown workload {other:?}")),
    };
    match run {
        Ok(r) => {
            println!("{}", r.json);
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) if e.starts_with("input fingerprint changed") => {
            eprintln!("perfbench: refusing to run: {e}");
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
