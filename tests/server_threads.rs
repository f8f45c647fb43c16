//! Thread-count guard: every server evaluates proofs on its own thread, so
//! a deployment of `n` servers runs exactly `n` OS threads — no per-server
//! helper threads. On the wire, the thread that reads a frame handles it,
//! so `n` servers run exactly `2n`: one connection reader on each side of
//! each edge, and no host loop or relay. Counts come from
//! `/proc/self/task`, sampled before the build and after it.
//!
//! The checks live in a single test on purpose: the test harness runs the
//! tests of one binary on concurrent threads, and any other test starting
//! or finishing between two samples would skew the count.

use safetx_net::NetCluster;
use safetx_runtime::{Cluster, ClusterConfig, ShardedCluster, ShardedConfig};
use std::time::{Duration, Instant};

/// OS threads of this process right now.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .count()
}

/// Waits until the thread count is back to `baseline`: a joined thread can
/// linger in `/proc/self/task` for a moment while the kernel reaps it.
fn settle(baseline: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while os_threads() != baseline {
        assert!(
            Instant::now() < deadline,
            "threads still running after shutdown: {} vs baseline {baseline}",
            os_threads()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn each_server_is_exactly_one_os_thread() {
    let baseline = os_threads();
    for servers in [1, 3] {
        let cluster = Cluster::new(ClusterConfig {
            servers,
            ..Default::default()
        });
        assert_eq!(
            os_threads() - baseline,
            servers,
            "a threaded cluster of {servers} servers"
        );
        cluster.shutdown();
        settle(baseline);
    }

    let sharded = ShardedCluster::new(ShardedConfig {
        shards: 2,
        cluster: ClusterConfig {
            servers: 2,
            ..Default::default()
        },
    });
    assert_eq!(os_threads() - baseline, 4, "a 2x2 sharded cluster");
    sharded.shutdown();
    settle(baseline);

    for servers in [1, 3] {
        let cluster = NetCluster::new(ClusterConfig {
            servers,
            ..Default::default()
        });
        assert_eq!(
            os_threads() - baseline,
            2 * servers,
            "a wire cluster of {servers} servers: one reader per side per edge"
        );
        cluster.shutdown();
        settle(baseline);
    }
}
