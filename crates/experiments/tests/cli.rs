//! The `experiments` binary's argument and output handling, run as a
//! subprocess.

use std::process::Command;

#[test]
fn degenerate_scale_exits_2_without_panicking() {
    // Each argv with the text its stderr must name: a rejected flag value,
    // or the usage for a command or flag the binary does not have.
    let cases: [(&[&str], &str); 3] = [
        (&["regret", "--scale", "0"], "--scale"),
        (&["bench", "tick-rate"], "usage:"),
        (&["fig2a", "--guard", "2"], "usage:"),
    ];
    for (argv, names) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(argv)
            .output()
            .expect("experiments binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains(names), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
    }
}

/// A path whose parent is a regular file, so no directory can be made
/// there on any Unix.
fn unwritable(name: &str) -> std::path::PathBuf {
    let file = std::env::temp_dir().join(format!("busbw-cli-{}-{name}", std::process::id()));
    std::fs::write(&file, b"").expect("temp file");
    file.join("sub")
}

#[test]
fn unwritable_out_dir_exits_1_without_panicking() {
    let out = unwritable("out");
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig2a", "--scale", "0.02", "--out"])
        .arg(&out)
        .output()
        .expect("experiments binary runs");
    let _ = std::fs::remove_file(out.parent().unwrap());
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cannot write output"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    // The figure itself was computed and printed before the write failed.
    assert!(String::from_utf8_lossy(&run.stdout).contains("== fig2a"));
}

#[test]
fn unusable_cache_dir_warns_and_runs_in_memory() {
    let cache = unwritable("cache");
    let out = std::env::temp_dir().join(format!("busbw-cli-{}-cache-out", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig1a", "--scale", "0.02", "--out"])
        .arg(&out)
        .arg("--cache-dir")
        .arg(&cache)
        .output()
        .expect("experiments binary runs");
    let _ = std::fs::remove_file(cache.parent().unwrap());
    let _ = std::fs::remove_dir_all(&out);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("warning: --cache-dir"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// Run the binary with `args` into a fresh output directory and return
/// the parsed manifest of figure `id`.
fn figure_manifest(id: &str, args: &[&str]) -> busbw_trace::json::Value {
    let out = std::env::temp_dir().join(format!("busbw-cli-{}-{id}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("experiments binary runs");
    let manifest = std::fs::read_to_string(out.join(format!("{id}.manifest.json")));
    let _ = std::fs::remove_dir_all(&out);
    assert_eq!(
        run.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    busbw_trace::json::parse(&manifest.expect("manifest written")).expect("manifest parses")
}

#[test]
fn figure_manifest_counts_its_cells_ticks() {
    let manifest = figure_manifest("fig2a", &["fig2a", "--scale", "0.02"]);
    let counter = |name: &str| {
        manifest
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("manifest lacks {name}"))
    };
    let (ticks, shared) = (counter("sim.ticks"), counter("sim.shared_ticks"));
    assert!(
        0.0 < shared && shared < ticks,
        "{shared} shared of {ticks} cell ticks"
    );
    assert!(counter("bus.memo_hits") + counter("bus.memo_misses") > 0.0);
}

#[test]
fn open_manifest_carries_the_managerd_counters() {
    let manifest = figure_manifest(
        "open",
        &[
            "open",
            "--arrivals",
            "poisson:small",
            "--duration",
            "short",
            "--scale",
            "0.2",
        ],
    );
    let counters = manifest
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("manifest has counters");
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("manifest lacks {name}"))
    };
    let (arrived, shed, served) = (
        counter("managerd.arrived"),
        counter("managerd.shed"),
        counter("managerd.served"),
    );
    assert!(arrived > 0.0);
    assert!(
        shed + served <= arrived,
        "{shed} shed + {served} served > {arrived} arrived"
    );
    assert!(counter("managerd.overhead_us") > 0.0);
    // 12 cells, each serving the 10 s `short` horizon at scale 0.2.
    assert_eq!(counter("managerd.served_us"), 12.0 * 2_000_000.0);
    // 200 ms quanta: 2 s serve 10 boundaries each (the one at the horizon
    // is not served).
    let quanta = counter("managerd.quanta");
    assert_eq!(quanta, 12.0 * 9.0);
    // The peak is a max over cells, bounded by the default accept queue.
    let peak = counter("managerd.queue_peak");
    assert!((1.0..=8.0).contains(&peak), "queue peak {peak}");
    let per_quantum = manifest
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get("managerd.overhead_us_per_quantum"))
        .and_then(|v| v.as_f64())
        .expect("manifest has the per-quantum overhead gauge");
    assert_eq!(per_quantum, counter("managerd.overhead_us") / quanta);
    // Against the 200 ms quantum this is the paper's overhead share.
    assert!(100.0 * per_quantum / 200_000.0 < 4.5);
    // One group serve per load; the Latest and Window stacks select
    // alike, so each load's pair that leaves the Oblivious serve is served
    // again once, as a fork: 8 serve loops for 12 cells.
    assert_eq!(counter("pool.groups"), 4.0);
    assert_eq!(counter("pool.forks"), 4.0);
    assert_eq!(counter("managerd.serves"), 8.0);
    // No machine runs in a managerd serve.
    assert_eq!(counter("sim.ticks"), 0.0);
    assert_eq!(counter("bus.memo_hits") + counter("bus.memo_misses"), 0.0);
}

/// The `oracle.*` counters and the root-gap gauge of one `regret` run's
/// manifest at `workers`.
fn regret_oracle_metrics(workers: &str) -> (Vec<f64>, f64) {
    let out = std::env::temp_dir().join(format!(
        "busbw-cli-{}-regret-w{workers}",
        std::process::id()
    ));
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["regret", "--scale", "0.03", "--workers", workers, "--out"])
        .arg(&out)
        .output()
        .expect("experiments binary runs");
    let manifest = std::fs::read_to_string(out.join("regret.manifest.json"));
    let _ = std::fs::remove_dir_all(&out);
    assert_eq!(
        run.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let manifest =
        busbw_trace::json::parse(&manifest.expect("manifest written")).expect("manifest parses");
    let metrics = manifest.get("metrics").expect("manifest has metrics");
    let counters = [
        "oracle.nodes",
        "oracle.leaves",
        "oracle.bound_prunes",
        "oracle.presim_prunes",
        "oracle.incomplete",
    ]
    .map(|name| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("manifest lacks {name}"))
    });
    let gap = metrics
        .get("gauges")
        .and_then(|g| g.get("oracle.root_gap_frac"))
        .and_then(|v| v.as_f64())
        .expect("manifest has the root-gap gauge");
    (counters.to_vec(), gap)
}

#[test]
fn regret_manifest_carries_the_oracle_counters() {
    let serial = regret_oracle_metrics("1");
    assert_eq!(
        regret_oracle_metrics("2"),
        serial,
        "counters moved with workers"
    );
    let (counters, gap) = serial;
    let &[nodes, leaves, bound, presim, incomplete] = &counters[..] else {
        unreachable!("five counters")
    };
    assert!(
        0.0 < presim && presim <= bound && bound <= nodes,
        "presim {presim}, bound {bound}, nodes {nodes}"
    );
    assert!(0.0 < leaves && leaves <= nodes);
    // At this scale both mixes' searches finish inside the node budget.
    assert_eq!(incomplete, 0.0);
    assert!((0.0..1.0).contains(&gap), "root gap {gap}");
}

/// SplitMix64: the argv fuzz test's seeded draw.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

/// Every command in the usage string.
const COMMANDS: [&str; 23] = [
    "fig1a",
    "fig1b",
    "fig2a",
    "fig2b",
    "fig2c",
    "trace fig2b",
    "summary",
    "ablate-window",
    "ablate-quantum",
    "ablate-fitness",
    "ablate-smt",
    "ablate-stages",
    "ablate --stages",
    "dynamic",
    "open",
    "baselines",
    "robustness",
    "topo",
    "regret",
    "validate",
    "variance",
    "audit",
    "all",
];

/// Every flag in the usage string that takes a value, with the commands
/// that read it.
const FLAGS: [(&str, &[&str]); 10] = [
    ("--scale", &["fig1a", "open", "regret", "all"]),
    ("--seed", &["fig2b", "audit", "open"]),
    ("--workers", &["fig2a", "topo", "regret"]),
    ("--out", &["fig1b", "open", "trace fig2b"]),
    ("--trace-out", &["fig2a", "trace fig2b"]),
    ("--cache-dir", &["fig2c", "summary"]),
    ("--policy", &["fig2a", "summary"]),
    ("--fuzz", &["audit"]),
    ("--arrivals", &["open"]),
    ("--duration", &["open"]),
];

/// The kinds of value drawn for a flag.
#[derive(Debug, Clone, Copy)]
enum Class {
    Valid,
    Empty,
    Negative,
    NaN,
    Huge,
    /// Zero or a positive number too small to scale any work.
    Tiny,
    Unwritable,
    /// The flag ends the argv with no value after it.
    Missing,
}

const CLASSES: [Class; 8] = [
    Class::Valid,
    Class::Empty,
    Class::Negative,
    Class::NaN,
    Class::Huge,
    Class::Tiny,
    Class::Unwritable,
    Class::Missing,
];

/// A value of `class` for `flag`. Paths are made under `dir`; a structured
/// spec carries the drawn number inside it.
fn value(flag: &str, class: Class, dir: &std::path::Path, d: &mut Draw) -> Option<String> {
    let path_flag = matches!(flag, "--out" | "--trace-out" | "--cache-dir");
    let number = match class {
        Class::Missing => return None,
        Class::Empty => return Some(String::new()),
        Class::Unwritable => {
            // Under a regular file, or under a directory no one may create.
            let file = dir.join("a-file");
            std::fs::write(&file, b"").expect("scratch file");
            let sub = if d.below(2) == 0 {
                file.join("sub")
            } else {
                "/proc/busbw-nope/sub".into()
            };
            return Some(sub.display().to_string());
        }
        Class::Huge if path_flag => {
            return Some(
                dir.join("x".repeat(300 + d.below(5000)))
                    .display()
                    .to_string(),
            );
        }
        Class::Valid => match flag {
            "--out" | "--cache-dir" => return Some(dir.join("o").display().to_string()),
            "--trace-out" => return Some(dir.join("t.jsonl").display().to_string()),
            "--scale" => d.pick(&["0.001", "0.004", "0.01"]),
            "--seed" => return Some(d.next().to_string()),
            "--workers" => d.pick(&["0", "1", "2", "4"]),
            "--fuzz" => d.pick(&["0", "1", "2"]),
            "--duration" => d.pick(&["short", "0.5", "3"]),
            "--arrivals" => {
                let spec = d.pick(&[
                    "poisson:small",
                    "pareto:40:2.5",
                    "diurnal:small:1",
                    "trace:diurnal",
                ]);
                return Some(spec.into());
            }
            "--policy" => {
                let spec = d.pick(&[
                    "estimator=window:5,selector=fitness,placer=packed",
                    "estimator=ewma:3,admission=strict,selector=greedy",
                    "quantum=50",
                ]);
                return Some(spec.into());
            }
            other => panic!("no valid value for {other}"),
        },
        Class::Negative => d.pick(&["-1", "-0.5", "-18446744073709551615"]),
        Class::NaN => d.pick(&["NaN", "nan", "inf", "-inf"]),
        Class::Huge => d.pick(&["1e300", "1e999", "18446744073709551616", "4294967297"]),
        Class::Tiny => d.pick(&["0", "-0", "1e-300", "5e-324"]),
    };
    Some(match flag {
        "--arrivals" => {
            let spec = d.pick(&["poisson:{}", "pareto:20:{}", "pareto:{}", "diurnal:5:{}"]);
            spec.replace("{}", number)
        }
        "--policy" => {
            let spec = d.pick(&[
                "estimator=window:{}",
                "estimator=ewma:{}",
                "quantum={}",
                "selector=random:{}",
            ]);
            spec.replace("{}", number)
        }
        "--out" | "--trace-out" | "--cache-dir" => dir.join(number).display().to_string(),
        _ => number.into(),
    })
}

/// Run one argv under `deadline` with `dir` as the working directory.
/// Returns why the run broke the contract, if it did: an exit code other
/// than 0, 1 or 2, a panic message on stderr, or still running at the
/// deadline (then it is killed).
fn run_case(
    argv: &[String],
    dir: &std::path::Path,
    deadline: std::time::Duration,
) -> Option<String> {
    let err_path = dir.join("stderr.txt");
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(argv)
        .current_dir(dir)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::fs::File::create(&err_path).expect("stderr file"))
        .spawn()
        .expect("experiments binary runs");
    let start = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break status;
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Some(format!("still running after {deadline:?}, killed"));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    if stderr.contains("panicked") {
        return Some(format!(
            "panicked: {}",
            stderr.lines().take(3).collect::<Vec<_>>().join(" | ")
        ));
    }
    match status.code() {
        Some(0..=2) => None,
        code => Some(format!(
            "exit {code:?}: {}",
            stderr.lines().next().unwrap_or("")
        )),
    }
}

/// Zero-sample estimators, which the fuzz below can draw but its seeded
/// sample does not: the parser rejects them before any run starts.
#[test]
fn zero_sample_estimators_exit_2_without_panicking() {
    for policy in ["estimator=window:0", "estimator=ewma:0"] {
        let argv = ["fig2a", "--policy", policy, "--scale", "0.001"];
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(argv)
            .output()
            .expect("experiments binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("at least 1"), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
    }
}

#[test]
fn argv_fuzz_never_panics_and_exits_0_1_or_2() {
    const SEED: u64 = 42;
    const DEADLINE: std::time::Duration = std::time::Duration::from_secs(60);
    // The draw must cover every flag the usage string names.
    let usage = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .output()
        .expect("experiments binary runs");
    let usage = String::from_utf8_lossy(&usage.stderr);
    let line = usage.lines().next().expect("usage line");
    let listed = &line[line.find("> [").expect("flag list after the commands")..];
    for flag in listed
        .split(['[', ']', ' '])
        .filter(|t| t.starts_with("--"))
    {
        assert!(
            flag == "--no-cache" || FLAGS.iter().any(|(f, _)| *f == flag),
            "the fuzz does not draw {flag}"
        );
    }
    let root = std::env::temp_dir().join(format!("busbw-cli-{}-fuzz", std::process::id()));
    let mut d = Draw(SEED);
    // Every flag with every class of value, then random mixes of two or
    // three flags, each valid half the time so that most mixes still get
    // past the parser. A case runs a command that reads its first flag
    // half the time, any command otherwise.
    let mut cases: Vec<Vec<(&str, Class)>> = Vec::new();
    for (flag, _) in FLAGS {
        for class in CLASSES {
            cases.push(vec![(flag, class)]);
        }
    }
    for _ in 0..40 {
        let n = 2 + d.below(2);
        cases.push(
            (0..n)
                .map(|_| {
                    let flag = FLAGS[d.below(FLAGS.len())].0;
                    match d.below(2) {
                        0 => (flag, Class::Valid),
                        _ => (flag, CLASSES[d.below(CLASSES.len())]),
                    }
                })
                .collect(),
        );
    }
    let mut argvs = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let dir = root.join(format!("case{i}"));
        std::fs::create_dir_all(&dir).expect("case dir");
        let readers = FLAGS
            .iter()
            .find(|(f, _)| *f == case[0].0)
            .expect("known flag")
            .1;
        let command = if d.below(2) == 0 {
            d.pick(readers)
        } else {
            d.pick(&COMMANDS)
        };
        let mut argv: Vec<String> = command.split(' ').map(String::from).collect();
        // Keep the valid runs small: later flags override these.
        argv.extend(["--scale", "0.001", "--out"].map(String::from));
        argv.push(dir.join("out").display().to_string());
        if d.below(4) == 0 {
            argv.push("--no-cache".into());
        }
        let mut missing = None;
        for &(flag, class) in case {
            match value(flag, class, &dir, &mut d) {
                Some(v) => argv.extend([flag.to_string(), v]),
                None => missing = Some(flag),
            }
        }
        // A flag without its value can only come last.
        argv.extend(missing.map(String::from));
        argvs.push((dir, argv));
    }
    // Two cases at a time: enough to keep two cores busy.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let failures = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some((dir, argv)) = argvs.get(i) else {
                    break;
                };
                if let Some(why) = run_case(argv, dir, DEADLINE) {
                    failures
                        .lock()
                        .expect("failure list")
                        .push(format!("experiments {}: {why}", argv.join(" ")));
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&root);
    let failures = failures.into_inner().expect("failure list");
    assert!(
        failures.is_empty(),
        "{} of {} argv cases broke the contract:\n{}",
        failures.len(),
        argvs.len(),
        failures.join("\n")
    );
}
