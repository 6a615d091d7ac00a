//! The router's thread budget, read from `/proc/self/task`: besides its
//! shards' batcher workers, a started router runs exactly one thread of
//! its own — the timer — plus the supervisor when one is configured.
//! Its own test binary, so no other test's fleet can perturb the count.
#![cfg(target_os = "linux")]

use parspeed_router::{Router, RouterConfig, SupervisorPolicy};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every live thread of this process: task id → name (`comm`, which
/// the kernel truncates to 15 bytes).
fn threads() -> BTreeMap<u64, String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let tid = path.file_name()?.to_str()?.parse().ok()?;
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            Some((tid, comm.trim_end().to_string()))
        })
        .collect()
}

/// Names of the threads started since `before`, read once each has
/// named itself: a new thread carries its spawner's name until then.
fn started_since(before: &BTreeMap<u64, String>) -> Vec<String> {
    let me = std::fs::read_to_string("/proc/thread-self/comm").expect("procfs");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let started: Vec<String> = threads()
            .into_iter()
            .filter(|(tid, _)| !before.contains_key(tid))
            .map(|(_, name)| name)
            .collect();
        if !started.contains(&me.trim_end().to_string()) || Instant::now() > deadline {
            return started;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_router_runs_one_thread_beyond_its_batchers() {
    for supervisor in [None, Some(SupervisorPolicy::default())] {
        let config = RouterConfig { supervisor, ..RouterConfig::default() };
        let before = threads();
        let router = Router::start(config);
        let started = started_since(&before);
        let count = |prefix: &str| started.iter().filter(|n| n.starts_with(prefix)).count();
        assert_eq!(count("parspeed-gather"), 0, "{started:?}");
        assert_eq!(count("parspeed-batch"), config.shards * config.backend.workers, "{started:?}");
        assert_eq!(count("parspeed-router"), 1, "one timer thread: {started:?}");
        assert_eq!(count("parspeed-superv"), usize::from(supervisor.is_some()), "{started:?}");
        assert_eq!(
            started.len(),
            config.shards * config.backend.workers + 1 + usize::from(supervisor.is_some()),
            "{started:?}"
        );
        router.shutdown();
    }
}
