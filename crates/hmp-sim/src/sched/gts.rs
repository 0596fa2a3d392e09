//! The Linux HMP Global Task Scheduling (GTS) model.
//!
//! GTS (the "big.LITTLE MP" patch set in Linux 3.10, the kernel the paper
//! runs) tracks a load average per thread and migrates threads between
//! clusters with two thresholds:
//!
//! * **up-migration**: a thread on the little cluster whose load reaches
//!   `up_threshold` is moved to the big cluster;
//! * **down-migration**: a thread on the big cluster whose load falls
//!   below `down_threshold` is moved to the little cluster.
//!
//! Within a cluster, a greedy balance pass evens out run-queue lengths.
//!
//! This reproduces the baseline behaviour the paper criticizes: for
//! CPU-bound multithreaded applications every thread's load saturates at
//! 1.0, so GTS packs all of them onto the big cluster and leaves the
//! little cores idle even when the big cluster is oversubscribed
//! (Section 4.1.1).

use crate::board::{BoardSpec, ClusterId};
use crate::cpuset::{CoreId, CpuSet};
use crate::sched::{migrate_thread, CoreState, RunQueues};
use crate::thread::ThreadState;

/// GTS tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GtsConfig {
    /// Scheduler tick period (load update + migration check), ns.
    pub tick_ns: u64,
    /// Load at or above which a little-cluster thread migrates up.
    pub up_threshold: f64,
    /// Load below which a big-cluster thread migrates down.
    pub down_threshold: f64,
    /// EWMA decay per tick: `load = decay·load + (1−decay)·frac`.
    pub load_decay: f64,
    /// Minimum run-queue length difference that triggers an in-cluster
    /// balance migration.
    pub balance_imbalance: usize,
    /// Up-migration only targets a big core whose run queue holds at
    /// most this many threads — a loaded big cluster stops attracting
    /// more work (the patchset checks the destination's capacity).
    pub up_migration_max_busy: usize,
    /// An idle core pulls a thread from any core whose run queue is at
    /// least this long (cross-cluster idle balancing; 0 disables).
    /// At the default 3, a single 8-thread app still packs onto the big
    /// cluster (2 threads/core), but two such apps spill onto the
    /// little cores instead of leaving half the board idle.
    pub idle_pull_min_queue: usize,
}

impl Default for GtsConfig {
    /// Values patterned on the Linux 3.10 big.LITTLE MP defaults
    /// (thresholds 80%/30%, ~4 ms scheduling period).
    fn default() -> Self {
        Self {
            tick_ns: 4_000_000,
            up_threshold: 0.80,
            down_threshold: 0.30,
            load_decay: 0.5,
            balance_imbalance: 2,
            up_migration_max_busy: 1,
            idle_pull_min_queue: 3,
        }
    }
}

impl GtsConfig {
    /// Validates threshold ordering and ranges.
    ///
    /// # Panics
    ///
    /// Panics when thresholds are outside `[0, 1]`, inverted, or the tick
    /// is zero — these are programmer errors in experiment setup.
    pub fn assert_valid(&self) {
        assert!(self.tick_ns > 0, "GTS tick must be positive");
        assert!(
            (0.0..=1.0).contains(&self.up_threshold) && (0.0..=1.0).contains(&self.down_threshold),
            "GTS thresholds must be fractions"
        );
        assert!(
            self.down_threshold <= self.up_threshold,
            "down threshold must not exceed up threshold"
        );
        assert!(
            (0.0..1.0).contains(&self.load_decay),
            "decay must be in [0,1)"
        );
    }
}

/// The board facts a GTS tick reads, computed once per engine: each
/// cluster's cores and its next-faster and next-slower neighbours
/// ([`BoardSpec::faster_cluster`], [`BoardSpec::slower_cluster`]).
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    cluster_cores: Vec<CpuSet>,
    faster: Vec<Option<ClusterId>>,
    slower: Vec<Option<ClusterId>>,
}

impl Topology {
    pub fn new(board: &BoardSpec) -> Self {
        Self {
            cluster_cores: board
                .cluster_ids()
                .map(|c| board.cluster_cores(c))
                .collect(),
            faster: board
                .cluster_ids()
                .map(|c| board.faster_cluster(c))
                .collect(),
            slower: board
                .cluster_ids()
                .map(|c| board.slower_cluster(c))
                .collect(),
        }
    }
}

/// One scheduler tick: update every live thread's load average from
/// its runnable time since the previous tick, then run the GTS
/// migration and balance passes.
///
/// `live` lists the ids of the threads that are not finished, in
/// ascending order; finished threads never run again, so the tick
/// leaves them alone. The cost is O(live threads + cores) plus
/// O(cores) per idle pull.
pub(crate) fn gts_tick(
    cfg: &GtsConfig,
    topo: &Topology,
    live: &[usize],
    threads: &mut [ThreadState],
    cores: &mut RunQueues,
) {
    update_loads(cfg, live, threads);
    migration_pass(cfg, topo, live, threads, cores);
    for &cluster in &topo.cluster_cores {
        balance_cluster(cfg, cluster, threads, cores);
    }
    idle_pull(cfg, threads, cores);
}

/// Updates the load EWMAs of the `live` threads and resets their
/// per-tick counters.
pub(crate) fn update_loads(cfg: &GtsConfig, live: &[usize], threads: &mut [ThreadState]) {
    for &tid in live {
        let t = &mut threads[tid];
        let frac = (t.runnable_ns_since_tick as f64 / cfg.tick_ns as f64).min(1.0);
        t.load = cfg.load_decay * t.load + (1.0 - cfg.load_decay) * frac;
        t.runnable_ns_since_tick = 0;
    }
}

/// Up/down migration between clusters for threads whose affinity allows
/// it (HARS-pinned threads have singleton masks and are never touched —
/// the paper notes HARS threads do not migrate between adaptations).
///
/// On an N-cluster board a hot thread climbs one step toward the
/// next-faster cluster and a cold thread descends one step toward the
/// next-slower one, so the 2-cluster big.LITTLE behaviour is the
/// special case. Only runnable threads move, so the pass walks the
/// `live` ids (ascending, like a walk over every thread).
fn migration_pass(
    cfg: &GtsConfig,
    topo: &Topology,
    live: &[usize],
    threads: &mut [ThreadState],
    cores: &mut RunQueues,
) {
    for &tid in live {
        let Some(core) = threads[tid].core else {
            continue;
        };
        if !threads[tid].is_runnable() {
            continue;
        }
        let cluster = cores[core.0].cluster.index();
        let (target_cluster, upward) = if threads[tid].load >= cfg.up_threshold {
            match topo.faster[cluster] {
                Some(c) => (c, true),
                None => continue,
            }
        } else if threads[tid].load < cfg.down_threshold {
            match topo.slower[cluster] {
                Some(c) => (c, false),
                None => continue,
            }
        } else {
            continue;
        };
        let allowed =
            topo.cluster_cores[target_cluster.index()].intersection(threads[tid].affinity);
        if let Some(dest) = least_loaded_core(allowed, cores) {
            // A saturated faster cluster stops attracting up-migrations.
            if upward && cores[dest.0].nr_running() > cfg.up_migration_max_busy {
                continue;
            }
            migrate_thread(tid, dest, threads, cores);
        }
    }
}

/// The core of `allowed` with the shortest run queue (ties to the
/// lowest id).
fn least_loaded_core(allowed: CpuSet, cores: &[CoreState]) -> Option<CoreId> {
    allowed
        .iter()
        .min_by_key(|c| (cores[c.0].nr_running(), c.0))
}

/// Greedy in-cluster balancing over `cluster` (the cluster's cores):
/// move one thread from the most crowded run queue to the least
/// crowded as long as the imbalance threshold is met. Bounded to the
/// cluster's thread count so it always terminates.
fn balance_cluster(
    cfg: &GtsConfig,
    cluster: CpuSet,
    threads: &mut [ThreadState],
    cores: &mut RunQueues,
) {
    let max_moves = cluster
        .iter()
        .map(|c| cores[c.0].nr_running())
        .sum::<usize>();
    for _ in 0..max_moves {
        let Some((busiest, idlest)) = busiest_idlest(cluster, cores) else {
            return;
        };
        if cores[busiest.0].nr_running() < cores[idlest.0].nr_running() + cfg.balance_imbalance {
            return;
        }
        // Pick a movable thread (affinity must allow the destination).
        let candidate = cores[busiest.0]
            .runnable
            .iter()
            .copied()
            .find(|&tid| threads[tid].affinity.contains(idlest));
        match candidate {
            Some(tid) => migrate_thread(tid, idlest, threads, cores),
            None => return,
        }
    }
}

/// Cross-cluster idle balancing: every idle core, in id order, pulls
/// one thread from the longest run queue on the board once that queue
/// reaches the configured threshold.
///
/// The longest queue is found once and found again only after a pull,
/// the only event that changes it, so a tick costs O(cores) plus
/// O(busy cores) per pull rather than O(cores²).
fn idle_pull(cfg: &GtsConfig, threads: &mut [ThreadState], cores: &mut RunQueues) {
    if cfg.idle_pull_min_queue == 0 {
        return;
    }
    let mut busiest = busiest_queue(cfg, cores);
    for idle_idx in 0..cores.len() {
        // No queue is long enough: nothing can be pulled from here on.
        let Some(src) = busiest else {
            return;
        };
        if cores[idle_idx].nr_running() > 0 {
            continue;
        }
        let idle_id = cores[idle_idx].id;
        let candidate = cores[src.0]
            .runnable
            .iter()
            .copied()
            .find(|&tid| threads[tid].affinity.contains(idle_id));
        if let Some(tid) = candidate {
            migrate_thread(tid, idle_id, threads, cores);
            busiest = busiest_queue(cfg, cores);
        }
    }
}

/// The longest run queue holding at least `idle_pull_min_queue`
/// threads (ties to the highest id). Only busy cores can qualify.
fn busiest_queue(cfg: &GtsConfig, cores: &RunQueues) -> Option<CoreId> {
    cores
        .busy()
        .iter()
        .filter(|c| cores[c.0].nr_running() >= cfg.idle_pull_min_queue)
        .max_by_key(|c| (cores[c.0].nr_running(), c.0))
}

fn busiest_idlest(cluster: CpuSet, cores: &[CoreState]) -> Option<(CoreId, CoreId)> {
    let mut busiest: Option<&CoreState> = None;
    let mut idlest: Option<&CoreState> = None;
    for c in cluster.iter().map(|id| &cores[id.0]) {
        if busiest.is_none_or(|b| c.nr_running() > b.nr_running()) {
            busiest = Some(c);
        }
        if idlest.is_none_or(|i| c.nr_running() < i.nr_running()) {
            idlest = Some(c);
        }
    }
    match (busiest, idlest) {
        (Some(b), Some(i)) if b.id != i.id => Some((b.id, i.id)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::RunState;

    fn setup(n_threads: usize) -> (BoardSpec, Vec<ThreadState>, RunQueues) {
        let board = BoardSpec::odroid_xu3();
        let cores = RunQueues::new(
            (0..board.n_cores())
                .map(|i| CoreState::new(CoreId(i), board.cluster_of(CoreId(i))))
                .collect(),
        );
        let threads: Vec<ThreadState> = (0..n_threads)
            .map(|_i| {
                let mut t = ThreadState::new(0, 0, board.all_cores());
                t.run = RunState::Runnable;
                t
            })
            .collect();
        (board, threads, cores)
    }

    /// A tick with every thread live.
    fn tick(
        cfg: &GtsConfig,
        board: &BoardSpec,
        threads: &mut [ThreadState],
        cores: &mut RunQueues,
    ) {
        let live: Vec<usize> = (0..threads.len()).collect();
        gts_tick(cfg, &Topology::new(board), &live, threads, cores);
    }

    #[test]
    fn default_config_is_valid() {
        GtsConfig::default().assert_valid();
    }

    #[test]
    fn load_ewma_converges_to_runnable_fraction() {
        let cfg = GtsConfig::default();
        let (_b, mut threads, _c) = setup(1);
        for _ in 0..32 {
            threads[0].runnable_ns_since_tick = cfg.tick_ns; // fully busy
            update_loads(&cfg, &[0], &mut threads);
        }
        assert!((threads[0].load - 1.0).abs() < 1e-6);
        for _ in 0..32 {
            threads[0].runnable_ns_since_tick = cfg.tick_ns / 4;
            update_loads(&cfg, &[0], &mut threads);
        }
        assert!((threads[0].load - 0.25).abs() < 1e-6);
    }

    #[test]
    fn busy_little_thread_migrates_up() {
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(1);
        threads[0].core = Some(CoreId(0)); // little
        cores.enqueue(CoreId(0), 0);
        // Fully busy across several ticks: load converges above the
        // up-migration threshold.
        for _ in 0..8 {
            threads[0].runnable_ns_since_tick = cfg.tick_ns;
            tick(&cfg, &board, &mut threads, &mut cores);
        }
        let dest = threads[0].core.unwrap();
        assert_eq!(board.cluster_of(dest), ClusterId::BIG);
    }

    #[test]
    fn idle_big_thread_migrates_down() {
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(1);
        threads[0].core = Some(CoreId(5));
        cores.enqueue(CoreId(5), 0);
        threads[0].load = 0.9;
        // Thread is idle from now on: runnable time 0 each tick.
        for _ in 0..8 {
            tick(&cfg, &board, &mut threads, &mut cores);
        }
        let dest = threads[0].core.unwrap();
        assert_eq!(board.cluster_of(dest), ClusterId::LITTLE);
    }

    #[test]
    fn pinned_threads_never_migrate() {
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(1);
        threads[0].affinity = CpuSet::single(CoreId(0));
        threads[0].core = Some(CoreId(0));
        cores.enqueue(CoreId(0), 0);
        threads[0].load = 1.0;
        tick(&cfg, &board, &mut threads, &mut cores);
        assert_eq!(threads[0].core, Some(CoreId(0)));
    }

    #[test]
    fn cpu_bound_threads_pack_onto_big_cluster() {
        // The paper's baseline pathology: 8 CPU-bound threads all end up
        // on the 4 big cores; little cores sit idle.
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(8);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.core = Some(CoreId(tid % 4)); // start on little
            cores.enqueue(CoreId(tid % 4), tid);
        }
        for _ in 0..16 {
            for t in threads.iter_mut() {
                t.runnable_ns_since_tick = cfg.tick_ns;
            }
            tick(&cfg, &board, &mut threads, &mut cores);
        }
        for t in &threads {
            assert_eq!(board.cluster_of(t.core.unwrap()), ClusterId::BIG);
        }
        // And the big run queues are balanced: 2 threads per big core.
        for c in cores.iter().filter(|c| c.cluster == ClusterId::BIG) {
            assert_eq!(c.nr_running(), 2);
        }
    }

    #[test]
    fn balance_evens_run_queues() {
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(4);
        // All four threads dumped on big core 4.
        for (tid, t) in threads.iter_mut().enumerate() {
            t.core = Some(CoreId(4));
            cores.enqueue(CoreId(4), tid);
            t.load = 0.9; // stay on big
        }
        balance_cluster(
            &cfg,
            board.cluster_cores(ClusterId::BIG),
            &mut threads,
            &mut cores,
        );
        let counts: Vec<usize> = (4..8).map(|i| cores[i].nr_running()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 4);
        assert!(counts.iter().all(|&c| c == 1), "unbalanced: {counts:?}");
    }

    #[test]
    fn balance_respects_affinity() {
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(3);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.affinity = CpuSet::single(CoreId(4));
            t.core = Some(CoreId(4));
            cores.enqueue(CoreId(4), tid);
        }
        balance_cluster(
            &cfg,
            board.cluster_cores(ClusterId::BIG),
            &mut threads,
            &mut cores,
        );
        assert_eq!(cores[4].nr_running(), 3, "pinned threads must stay");
    }

    #[test]
    fn sixteen_threads_spread_across_both_clusters() {
        // Two 8-thread CPU-bound apps: the big cluster saturates at 2
        // threads/core and idle little cores pull the excess — the
        // multi-application baseline uses the whole board.
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(16);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.core = Some(CoreId(tid % 8));
            cores.enqueue(CoreId(tid % 8), tid);
        }
        for _ in 0..32 {
            for t in threads.iter_mut() {
                t.runnable_ns_since_tick = cfg.tick_ns;
            }
            tick(&cfg, &board, &mut threads, &mut cores);
        }
        let little_threads: usize = (0..4).map(|i| cores[i].nr_running()).sum();
        let big_threads: usize = (4..8).map(|i| cores[i].nr_running()).sum();
        assert_eq!(little_threads + big_threads, 16);
        assert!(
            little_threads >= 4,
            "little cluster must absorb spill ({little_threads} threads)"
        );
        assert!(
            big_threads >= 8,
            "big cluster stays primary ({big_threads})"
        );
    }

    #[test]
    fn idle_pull_respects_affinity() {
        let cfg = GtsConfig::default();
        let (_board, mut threads, mut cores) = setup(3);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.affinity = CpuSet::single(CoreId(4));
            t.core = Some(CoreId(4));
            cores.enqueue(CoreId(4), tid);
        }
        idle_pull(&cfg, &mut threads, &mut cores);
        assert_eq!(cores[4].nr_running(), 3, "pinned threads cannot be pulled");
    }

    // ------------------------------------------------------------------
    // Equivalence with the naive passes: every thread, every core
    // ------------------------------------------------------------------

    use crate::sched::migrate_thread;
    use crate::thread::BlockReason;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Migration over every thread ever created, with a whole-board
    /// scan for the destination.
    fn naive_migration_pass(
        cfg: &GtsConfig,
        board: &BoardSpec,
        threads: &mut [ThreadState],
        cores: &mut RunQueues,
    ) {
        for tid in 0..threads.len() {
            let Some(core) = threads[tid].core else {
                continue;
            };
            if !threads[tid].is_runnable() {
                continue;
            }
            let cluster = board.cluster_of(core);
            let (target, upward) = if threads[tid].load >= cfg.up_threshold {
                match board.faster_cluster(cluster) {
                    Some(c) => (c, true),
                    None => continue,
                }
            } else if threads[tid].load < cfg.down_threshold {
                match board.slower_cluster(cluster) {
                    Some(c) => (c, false),
                    None => continue,
                }
            } else {
                continue;
            };
            let dest = cores
                .iter()
                .filter(|c| c.cluster == target && threads[tid].affinity.contains(c.id))
                .min_by_key(|c| (c.nr_running(), c.id.0))
                .map(|c| c.id);
            if let Some(dest) = dest {
                if upward && cores[dest.0].nr_running() > cfg.up_migration_max_busy {
                    continue;
                }
                migrate_thread(tid, dest, threads, cores);
            }
        }
    }

    /// Idle pull that rescans the whole board for the longest queue at
    /// every idle core.
    fn naive_idle_pull(cfg: &GtsConfig, threads: &mut [ThreadState], cores: &mut RunQueues) {
        if cfg.idle_pull_min_queue == 0 {
            return;
        }
        for idle_idx in 0..cores.len() {
            if cores[idle_idx].nr_running() > 0 {
                continue;
            }
            let idle_id = cores[idle_idx].id;
            let busiest = cores
                .iter()
                .filter(|c| c.nr_running() >= cfg.idle_pull_min_queue)
                .max_by_key(|c| (c.nr_running(), c.id.0))
                .map(|c| c.id);
            let Some(src) = busiest else {
                continue;
            };
            let candidate = cores[src.0]
                .runnable
                .iter()
                .copied()
                .find(|&tid| threads[tid].affinity.contains(idle_id));
            if let Some(tid) = candidate {
                migrate_thread(tid, idle_id, threads, cores);
            }
        }
    }

    /// A random board state: threads in every run state with mixed
    /// affinities, runnable ones queued on an allowed core in random
    /// order, loads spread over (and exactly on) the thresholds.
    fn random_layout(
        rng: &mut StdRng,
    ) -> (
        BoardSpec,
        GtsConfig,
        Vec<usize>,
        Vec<ThreadState>,
        RunQueues,
    ) {
        let board = match rng.random_range(0u8..3) {
            0 => BoardSpec::odroid_xu3(),
            1 => BoardSpec::dynamiq_1p_3m_4l(),
            _ => BoardSpec::server_5c_48core(),
        };
        let cfg = GtsConfig {
            idle_pull_min_queue: rng.random_range(0usize..5),
            up_migration_max_busy: rng.random_range(0usize..3),
            ..GtsConfig::default()
        };
        let n = board.n_cores();
        let mut cores = RunQueues::new(
            (0..n)
                .map(|i| CoreState::new(CoreId(i), board.cluster_of(CoreId(i))))
                .collect(),
        );
        let n_threads = rng.random_range(1usize..3 * n);
        let mut threads = Vec::with_capacity(n_threads);
        for tid in 0..n_threads {
            let affinity = match rng.random_range(0u8..10) {
                0..=5 => board.all_cores(),
                6 | 7 => {
                    let c = ClusterId(rng.random_range(0..board.n_clusters()));
                    board.cluster_cores(c)
                }
                8 => CpuSet::single(CoreId(rng.random_range(0..n))),
                _ => {
                    let mut s = CpuSet::single(CoreId(rng.random_range(0..n)));
                    for c in board.all_cores().iter() {
                        if rng.random_range(0u8..3) == 0 {
                            s.insert(c);
                        }
                    }
                    s
                }
            };
            let mut t = ThreadState::new(0, 0, affinity);
            t.load = match rng.random_range(0u8..6) {
                0 => cfg.up_threshold,
                1 => cfg.down_threshold,
                _ => rng.random_range(0.0..1.0),
            };
            t.runnable_ns_since_tick = rng.random_range(0..2 * cfg.tick_ns);
            let allowed: Vec<CoreId> = affinity.iter().collect();
            let core = allowed[rng.random_range(0..allowed.len())];
            match rng.random_range(0u8..7) {
                0..=4 => {
                    t.run = RunState::Runnable;
                    t.core = Some(core);
                    cores.enqueue(core, tid);
                }
                5 => t.run = RunState::Blocked(BlockReason::Barrier),
                _ => t.run = RunState::Finished,
            }
            if !t.is_runnable() && rng.random_range(0u8..2) == 0 {
                t.core = Some(core);
            }
            threads.push(t);
        }
        let live = (0..n_threads)
            .filter(|&tid| threads[tid].run != RunState::Finished)
            .collect();
        (board, cfg, live, threads, cores)
    }

    /// Everything a pass can change: placements, queue contents and
    /// order, queue epochs and the busy set.
    type Placement = (Vec<Option<CoreId>>, Vec<Vec<usize>>, Vec<u64>, CpuSet);

    fn placement(threads: &[ThreadState], cores: &RunQueues) -> Placement {
        (
            threads.iter().map(|t| t.core).collect(),
            cores.iter().map(|c| c.runnable.clone()).collect(),
            cores.iter().map(|c| c.rq_epoch).collect(),
            cores.busy(),
        )
    }

    #[test]
    fn passes_match_naive_reference_on_random_layouts() {
        let mut rng = StdRng::seed_from_u64(0x6775_7473);
        let mut moved = (0usize, 0usize);
        for _ in 0..400 {
            let (board, cfg, live, threads, cores) = random_layout(&mut rng);
            let before = placement(&threads, &cores);

            let (mut t_new, mut c_new) = (threads.clone(), cores.clone());
            migration_pass(&cfg, &Topology::new(&board), &live, &mut t_new, &mut c_new);
            let (mut t_ref, mut c_ref) = (threads.clone(), cores.clone());
            naive_migration_pass(&cfg, &board, &mut t_ref, &mut c_ref);
            let after = placement(&t_new, &c_new);
            assert_eq!(after, placement(&t_ref, &c_ref), "migration pass diverged");
            moved.0 += usize::from(after != before);

            let (mut t_new, mut c_new) = (threads.clone(), cores.clone());
            idle_pull(&cfg, &mut t_new, &mut c_new);
            let (mut t_ref, mut c_ref) = (threads.clone(), cores.clone());
            naive_idle_pull(&cfg, &mut t_ref, &mut c_ref);
            let after = placement(&t_new, &c_new);
            assert_eq!(after, placement(&t_ref, &c_ref), "idle pull diverged");
            moved.1 += usize::from(after != before);
        }
        // The layouts exercise both passes, not just their no-op paths.
        assert!(moved.0 > 100 && moved.1 > 50, "too few moves: {moved:?}");
    }

    #[test]
    #[should_panic(expected = "down threshold must not exceed")]
    fn inverted_thresholds_panic() {
        let cfg = GtsConfig {
            up_threshold: 0.2,
            down_threshold: 0.8,
            ..GtsConfig::default()
        };
        cfg.assert_valid();
    }
}
