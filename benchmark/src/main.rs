//! `e2nvm-benchmark` — the repository's benchmark (see `README.md`
//! beside this package and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one contract run
//! benchmark/run.sh [--seed N] [--smoke] [--check-repeat]           the whole suite
//! benchmark/run.sh --print-benchmark-json                          BENCHMARK.json's text
//! ```

mod calibrate;
mod clock;
mod geometry;
mod metrics;
mod passes;
mod replay;
mod report;
mod span;
mod stack;
mod stats;
mod wire;
mod workload;

use calibrate::Calibration;
use geometry::{COUNTED_OPS, PIPELINE_DEPTH, SETUP_REPS, SLICES, TRACED_OPS};
use metrics::{Ladder, LayerInputs};
use passes::{
    counted_pass, timed_pass, traced_pass, Counted, CountedHost, Schedule, Timed, Traced,
};
use report::{Environment, WorkloadReport};
use stack::{set_up, SetUp};
use std::path::{Path, PathBuf};
use std::time::Duration;
use workload::{Inputs, PoolKind, Spec, WORKLOADS};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// How much of everything one invocation runs.
#[derive(Debug, Clone)]
struct Plan {
    mode: &'static str,
    workloads: Vec<&'static Spec>,
    seed: u64,
    /// Set-ups; `setup_s` is their median.
    setups: usize,
    /// Timed passes per workload, interleaved round-robin across the
    /// workloads so that host drift hits them alike.
    rounds: usize,
    /// Warm-up, repetition length and count of each timed pass.
    schedule: Schedule,
    counted_ops: usize,
    /// Run the counted pass twice and require identical counts.
    counted_twice: bool,
    /// Run the traced pass over this many ops.
    traced_ops: Option<usize>,
}

impl Plan {
    /// One contract run of one workload.
    fn driver(spec: &'static Spec, seed: u64, seconds: f64, trace: bool) -> Self {
        // With --trace 1 the wire run gets half the time; the traced
        // replays (a fixed op count per depth) take the rest.
        let timed = if trace { seconds / 2.0 } else { seconds };
        Self {
            mode: "driver",
            workloads: vec![spec],
            seed,
            setups: if trace { 1 } else { SETUP_REPS },
            rounds: 1,
            schedule: Schedule {
                warmup: Duration::from_secs_f64((timed / 10.0).clamp(0.2, 1.0)),
                slice: Duration::from_secs_f64(timed / SLICES as f64),
                slices: SLICES,
            },
            counted_ops: COUNTED_OPS,
            counted_twice: false,
            traced_ops: trace.then_some(TRACED_OPS),
        }
    }

    /// Every workload, every pass. `--smoke` runs a twentieth of the
    /// ops (in whole pipeline batches) and one repetition.
    fn suite(seed: u64, smoke: bool) -> Self {
        let scaled = |ops: usize| {
            if smoke {
                ops / 20 / PIPELINE_DEPTH * PIPELINE_DEPTH
            } else {
                ops
            }
        };
        Self {
            mode: if smoke { "smoke" } else { "suite" },
            workloads: WORKLOADS.iter().collect(),
            seed,
            setups: if smoke { 1 } else { SETUP_REPS },
            rounds: if smoke { 1 } else { 5 },
            schedule: Schedule {
                warmup: Duration::from_millis(if smoke { 100 } else { 500 }),
                slice: Duration::from_millis(if smoke { 100 } else { 300 }),
                slices: if smoke { 4 } else { SLICES / 5 },
            },
            counted_ops: scaled(COUNTED_OPS),
            counted_twice: smoke,
            traced_ops: Some(scaled(TRACED_OPS)),
        }
    }
}

/// Set the system up `n` times, each over the last one's snapshot, and
/// require every set-up to leave the same bytes behind: set-up is
/// deterministic, and if it were not, the passes would not start from
/// one state.
fn set_up_repeatedly(
    out: &Path,
    n: usize,
    spec: &Spec,
    inputs: &Inputs,
    calibration: &mut Calibration,
) -> Result<Vec<SetUp>> {
    let mut setups: Vec<SetUp> = Vec::with_capacity(n);
    let mut left_behind: Option<Vec<u8>> = None;
    for _ in 0..n {
        let s = set_up(out, "setup", spec, inputs, calibration)?;
        let bytes = std::fs::read(&s.snapshot)?;
        if left_behind.as_ref().is_some_and(|first| *first != bytes)
            || setups
                .first()
                .is_some_and(|first| first.load_stats != s.load_stats)
        {
            return Err("two set-ups from one seed left different states".into());
        }
        left_behind = Some(bytes);
        setups.push(s);
    }
    Ok(setups)
}

/// Raw results of one workload.
struct Measured {
    spec: &'static Spec,
    inputs: Inputs,
    timed: Timed,
    counted: (Counted, CountedHost),
    traced: Option<Traced>,
}

fn run(plan: &Plan, out: &Path) -> Result<(Vec<WorkloadReport>, Vec<Measured>)> {
    std::fs::create_dir_all(out)?;
    let all_inputs: Vec<Inputs> = plan
        .workloads
        .iter()
        .map(|w| Inputs::generate(w, plan.seed, PoolKind::MnistLike))
        .collect();
    // The load and the pool depend on the seed only, so one series of
    // set-ups serves every workload.
    let mut calibration = Calibration::new()?;
    let setups = set_up_repeatedly(
        out,
        plan.setups,
        plan.workloads[0],
        &all_inputs[0],
        &mut calibration,
    )?;
    let snapshot = setups[0].snapshot.clone();

    let mut timed: Vec<Timed> = plan.workloads.iter().map(|_| Timed::default()).collect();
    for _ in 0..plan.rounds {
        for (w, spec) in plan.workloads.iter().enumerate() {
            timed[w].absorb(timed_pass(
                out,
                spec,
                &snapshot,
                &all_inputs[w],
                plan.schedule,
                &mut calibration,
            )?);
        }
    }

    let mut measured = Vec::new();
    for ((spec, inputs), timed) in plan.workloads.iter().zip(all_inputs).zip(timed) {
        let counted = counted_pass(
            out,
            spec,
            &snapshot,
            &inputs,
            plan.counted_ops,
            false,
            &mut calibration,
        )?;
        if plan.counted_twice {
            let again = counted_pass(
                out,
                spec,
                &snapshot,
                &inputs,
                plan.counted_ops,
                false,
                &mut calibration,
            )?;
            if again.0 != counted.0 {
                return Err(format!(
                    "{}: two counted passes disagree:\n{:?}\n{:?}",
                    spec.name, counted.0, again.0
                )
                .into());
            }
        }
        let traced = plan
            .traced_ops
            .map(|ops| traced_pass(out, spec, &snapshot, &inputs, ops))
            .transpose()?;
        measured.push(Measured {
            spec,
            inputs,
            timed,
            counted,
            traced,
        });
    }
    std::fs::remove_file(&snapshot)?;

    let reports = measured
        .iter()
        .map(|m| {
            let replayed = m
                .traced
                .iter()
                .flat_map(|t| &t.replays)
                .fold((0, 0), |(a, f), (_, c)| (a + c.ops, f + c.failed));
            let per_layer = m.traced.as_ref().map(|traced| {
                metrics::per_layer(&LayerInputs {
                    inputs: &m.inputs,
                    setup: setups.last().expect("at least one set-up"),
                    timed: &m.timed,
                    counted: &m.counted,
                    traced,
                })
            });
            WorkloadReport {
                name: m.spec.name,
                attempted: m.timed.counts.ops + m.counted.0.counts.ops + replayed.0,
                failed: m.timed.counts.failed + m.counted.0.counts.failed + replayed.1,
                trace_digest: m.inputs.digest,
                latency_samples: m.timed.latencies.len(),
                repetitions: m.timed.slices.clone(),
                end_to_end: metrics::end_to_end(&setups, &m.timed, &m.counted.0),
                per_layer,
                ladder: m.traced.as_ref().map(Ladder::new),
            }
        })
        .collect();
    Ok((reports, measured))
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T> {
    match arg_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag}: cannot parse {v:?}").into()),
    }
}

fn environment(plan: &Plan, args: &[String], nproc: usize, pinned_cpu: usize) -> Environment {
    Environment {
        seed: plan.seed,
        nproc,
        pinned_cpu,
        rustc: arg_value(args, "--rustc").unwrap_or_else(|| "unknown".into()),
        commit: arg_value(args, "--commit").unwrap_or_else(|| "unknown".into()),
        mode: plan.mode,
    }
}

fn write_outputs(
    out: &Path,
    env: &Environment,
    reports: &[WorkloadReport],
    measured: &[Measured],
    control: Option<&str>,
) -> Result<()> {
    std::fs::write(out.join("BENCH.json"), report::bench_json(env, reports))?;
    if measured.iter().any(|m| m.traced.is_some()) {
        let mut trace = format!(
            "{{\n  \"schema\": \"{}\",\n  \"workloads\": {{\n",
            report::SCHEMA
        );
        let mut first = true;
        for m in measured {
            if let Some(traced) = &m.traced {
                if !first {
                    trace.push_str(",\n");
                }
                first = false;
                report::trace_json_entry(&mut trace, m.spec.name, traced);
            }
        }
        trace.push_str("\n  }\n}\n");
        std::fs::write(out.join("trace.json"), trace)?;

        let mut md = String::from(
            "# Attribution: where a request's time goes\n\n\
             Per workload, the depth ladder of the traced pass. Every depth replays the same \
             ops; a layer's self time is its spans minus its children's (timer overhead taken \
             off each span). Host times are this sandbox's.\n\n",
        );
        for r in reports {
            report::attribution_section(&mut md, r);
        }
        md.push_str(&report::why_slower(reports));
        if let Some(control) = control {
            md.push_str(control);
        }
        std::fs::write(out.join("attribution.md"), md)?;
    }
    Ok(())
}

/// `flips_per_write` of `put_clustered` with the value pool replaced by
/// uniform-random bytes: content-aware placement has nothing to hold
/// on to there, so the workload's own figure must be far below it.
fn random_pool_control(plan: &Plan, out: &Path, reports: &[WorkloadReport]) -> Result<String> {
    let spec = workload::spec("put_clustered").expect("put_clustered is defined");
    let inputs = Inputs::generate(spec, plan.seed, PoolKind::Random);
    let mut calibration = Calibration::new()?;
    let setup = set_up(out, "setup-random", spec, &inputs, &mut calibration)?;
    // Random values all look alike to the model, drain one cluster's
    // free list and so trigger background retraining; a factor-of-two
    // claim does not need the exact counts that would forbid.
    let (counted, _) = counted_pass(
        out,
        spec,
        &setup.snapshot,
        &inputs,
        plan.counted_ops,
        true,
        &mut calibration,
    )?;
    std::fs::remove_file(&setup.snapshot)?;
    let random = metrics::simulated(&setup.load_stats, &counted)[0];
    let clustered = reports
        .iter()
        .find(|r| r.name == spec.name)
        .and_then(|r| {
            r.end_to_end
                .iter()
                .find(|v| v.def.name == "flips_per_write")
        })
        .map(|v| v.value)
        .ok_or("put_clustered was not measured")?;
    if clustered >= random / 2.0 {
        return Err(format!(
            "put_clustered does not exercise placement: flips_per_write {clustered:.2} is not \
             below half of the {random:.2} a uniform-random value pool yields"
        )
        .into());
    }
    Ok(format!(
        "## Does `put_clustered` exercise placement?\n\n\
         `flips_per_write` on `put_clustered` is {clustered:.2} bits; the same run with the value \
         pool replaced by uniform-random bytes yields {random:.2} bits — below half, so the \
         workload exercises placement.\n"
    ))
}

/// `--check-repeat`: two full sets back to back must agree within each
/// end-to-end metric's bound, and exactly on the simulated ones.
fn check_repeat(first: &[WorkloadReport], second: &[WorkloadReport]) -> Vec<String> {
    let mut problems = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for (va, vb) in a.end_to_end.iter().zip(&b.end_to_end) {
            let bound = va.def.bound.expect("end-to-end metrics carry a bound");
            let worse = match va.def.better {
                metrics::Better::Lower => vb.value / va.value - 1.0,
                metrics::Better::Higher => va.value / vb.value - 1.0,
            };
            if va.def.simulated && va.value != vb.value {
                problems.push(format!(
                    "{} {}: simulated count differs between sets: {} vs {}",
                    a.name, va.def.name, va.value, vb.value
                ));
            } else if worse.abs() > bound {
                problems.push(format!(
                    "{} {}: sets differ by {:.1} % (bound {:.0} %): {} vs {}",
                    a.name,
                    va.def.name,
                    worse * 100.0,
                    bound * 100.0,
                    va.value,
                    vb.value
                ));
            }
        }
    }
    problems
}

fn real_main() -> Result<i32> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", report::benchmark_json());
        return Ok(0);
    }
    let out = PathBuf::from(arg_value(&args, "--out").ok_or("--out DIR is required")?);
    // Everything from here on — set-up, the server's threads, the
    // driver, the reference loads — shares one CPU (see the README's
    // "Noise control" for what that removes).
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned_cpu = clock::pin_to_one_cpu();
    let seed: u64 = parse(&args, "--seed", 1)?;
    let workload = arg_value(&args, "--workload");

    if let Some(name) = workload {
        let spec = workload::spec(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let seconds: f64 = parse(&args, "--seconds", report::RUN_SECONDS as f64)?;
        let trace = match parse(&args, "--trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}").into()),
        };
        if !(1.0..=60.0).contains(&seconds) {
            return Err(format!("--seconds must be within 1..=60, got {seconds}").into());
        }
        let plan = Plan::driver(spec, seed, seconds, trace);
        let (reports, measured) = run(&plan, &out)?;
        let env = environment(&plan, &args, nproc, pinned_cpu);
        write_outputs(&out, &env, &reports, &measured, None)?;
        report::print_report(&reports[0]);
        println!("{}", report::result_line(&reports[0], trace));
        return Ok(i32::from(reports[0].failed > 0));
    }

    let plan = Plan::suite(seed, args.iter().any(|a| a == "--smoke"));
    let (reports, measured) = run(&plan, &out)?;
    let control = random_pool_control(&plan, &out, &reports)?;
    write_outputs(
        &out,
        &environment(&plan, &args, nproc, pinned_cpu),
        &reports,
        &measured,
        Some(&control),
    )?;
    reports.iter().for_each(report::print_report);
    let mut status = i32::from(reports.iter().any(|r| r.failed > 0));
    if args.iter().any(|a| a == "--check-repeat") {
        drop(measured);
        let (again, _) = run(&plan, &out)?;
        let problems = check_repeat(&reports, &again);
        for p in &problems {
            println!("check-repeat: {p}");
        }
        println!(
            "check-repeat: {}",
            if problems.is_empty() {
                "two sets agree"
            } else {
                "FAILED"
            }
        );
        status |= i32::from(!problems.is_empty() || again.iter().any(|r| r.failed > 0));
    }
    println!("wrote {}", out.join("BENCH.json").display());
    Ok(status)
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("e2nvm-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
