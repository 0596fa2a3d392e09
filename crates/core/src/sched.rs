//! The HARS thread schedulers (Section 3.1.3, Figure 3.2), generalized
//! to N clusters.
//!
//! Both schedulers take the generalized Table 3.1 assignment (per
//! cluster, thread and used-core counts) and pin each thread (by id
//! order) to one core via `sched_setaffinity`:
//!
//! * **chunk-based** — thread ids are split into contiguous chunks per
//!   cluster, slowest cluster first (on big.LITTLE: the first `T_L` ids
//!   go to the little cores, the rest to the big cores). Consecutive
//!   threads share clusters (constructive cache sharing) but pipeline
//!   stages can end up entirely on slow cores (the ferret bottleneck).
//! * **interleaving** — thread ids alternate between clusters in
//!   proportion to their thread counts, so every pipeline stage
//!   receives a fair mix of fast and slow cores.

use hmp_sim::{BoardSpec, ClusterId, CoreId, CpuSet};

use crate::assign::ThreadAssignment;

/// Which of the two HARS schedulers to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Chunk-based: consecutive thread ids share a cluster.
    #[default]
    Chunk,
    /// Interleaving: thread ids alternate clusters proportionally.
    Interleaved,
}

impl SchedulerKind {
    /// Short display name ("chunk" / "interleaved").
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Chunk => "chunk",
            SchedulerKind::Interleaved => "interleaved",
        }
    }
}

/// Plans per-thread singleton affinity masks.
///
/// `cores[c]` are the cores allocated to the application on cluster `c`
/// (from the board for single-app HARS, from the resource partitioner
/// for MP-HARS); only the first `C_c,U` of them are used, and threads
/// beyond the used-core count share cores round-robin.
///
/// Returns one `CpuSet` per thread id.
///
/// # Panics
///
/// Panics if the assignment needs cores that were not provided, or if
/// its thread total is zero.
pub fn plan_affinities(
    kind: SchedulerKind,
    assignment: &ThreadAssignment,
    cores: &[Vec<CoreId>],
) -> Vec<CpuSet> {
    let t = assignment.total_threads();
    assert!(t > 0, "assignment covers no threads");
    assert_eq!(
        cores.len(),
        assignment.n_clusters(),
        "one core list per cluster"
    );
    for (i, cluster_cores) in cores.iter().enumerate() {
        let c = ClusterId(i);
        assert!(
            assignment.used(c) <= cluster_cores.len(),
            "need {} cores on cluster {i}, got {}",
            assignment.used(c),
            cluster_cores.len()
        );
    }
    // Which cluster each thread id lands on.
    let cluster_of: Vec<usize> = match kind {
        SchedulerKind::Chunk => {
            // Contiguous chunks in cluster-index order (slowest first).
            let mut out = Vec::with_capacity(t);
            for i in 0..assignment.n_clusters() {
                out.extend(std::iter::repeat_n(i, assignment.threads(ClusterId(i))));
            }
            out
        }
        SchedulerKind::Interleaved => {
            // Bresenham spread, cluster by cluster over the positions
            // the earlier (slower) clusters left free: cluster `c` with
            // quota `q` marks position `j` of the `l` remaining ones
            // iff `(j·q) % l < q` — exactly Figure 3.2(b)'s
            // little-first alternation on two clusters.
            let mut out = vec![usize::MAX; t];
            let mut free: Vec<usize> = (0..t).collect();
            for i in 0..assignment.n_clusters() {
                let q = assignment.threads(ClusterId(i));
                let l = free.len();
                if q == 0 || l == 0 {
                    continue;
                }
                let mut kept = Vec::with_capacity(l - q);
                for (j, &pos) in free.iter().enumerate() {
                    if (j * q) % l < q {
                        out[pos] = i;
                    } else {
                        kept.push(pos);
                    }
                }
                free = kept;
            }
            debug_assert!(out.iter().all(|&c| c != usize::MAX));
            out
        }
    };
    let mut next = vec![0usize; assignment.n_clusters()];
    let mut plan = Vec::with_capacity(t);
    for ci in cluster_of {
        let c = ClusterId(ci);
        let used = assignment.used(c).max(1);
        let core = cores[ci][next[ci] % used];
        next[ci] += 1;
        plan.push(CpuSet::single(core));
    }
    plan
}

/// Default core selection for single-application HARS: the first
/// `C_c,U` cores of each cluster.
pub fn default_core_allocation(
    board: &BoardSpec,
    assignment: &ThreadAssignment,
) -> Vec<Vec<CoreId>> {
    board
        .cluster_ids()
        .map(|c| {
            let start = board.cluster_start(c).0;
            (0..assignment.used(c)).map(|i| CoreId(start + i)).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(T_B, T_L, C_B,U, C_L,U)` like the paper's tables.
    fn asg(tb: usize, tl: usize, ub: usize, ul: usize) -> ThreadAssignment {
        ThreadAssignment::big_little(tb, tl, ub, ul)
    }

    fn cores(ids: &[usize]) -> Vec<CoreId> {
        ids.iter().map(|&i| CoreId(i)).collect()
    }

    /// `[little cores, big cores]` in cluster-index order.
    fn alloc(big: &[usize], little: &[usize]) -> Vec<Vec<CoreId>> {
        vec![cores(little), cores(big)]
    }

    fn side_of(board: &BoardSpec, set: &CpuSet) -> ClusterId {
        board.cluster_of(set.first().unwrap())
    }

    #[test]
    fn chunk_matches_figure_3_2a() {
        // Figure 3.2(a): 8 threads, 4L + 4B; T0-T3 little, T4-T7 big.
        let board = BoardSpec::odroid_xu3();
        let plan = plan_affinities(
            SchedulerKind::Chunk,
            &asg(4, 4, 4, 4),
            &alloc(&[4, 5, 6, 7], &[0, 1, 2, 3]),
        );
        let sides: Vec<ClusterId> = plan.iter().map(|s| side_of(&board, s)).collect();
        assert_eq!(
            sides,
            vec![
                ClusterId::LITTLE,
                ClusterId::LITTLE,
                ClusterId::LITTLE,
                ClusterId::LITTLE,
                ClusterId::BIG,
                ClusterId::BIG,
                ClusterId::BIG,
                ClusterId::BIG
            ]
        );
    }

    #[test]
    fn interleaved_matches_figure_3_2b() {
        // Figure 3.2(b): T0 L, T1 B, T2 L, T3 B, ...
        let board = BoardSpec::odroid_xu3();
        let plan = plan_affinities(
            SchedulerKind::Interleaved,
            &asg(4, 4, 4, 4),
            &alloc(&[4, 5, 6, 7], &[0, 1, 2, 3]),
        );
        let sides: Vec<ClusterId> = plan.iter().map(|s| side_of(&board, s)).collect();
        assert_eq!(
            sides,
            vec![
                ClusterId::LITTLE,
                ClusterId::BIG,
                ClusterId::LITTLE,
                ClusterId::BIG,
                ClusterId::LITTLE,
                ClusterId::BIG,
                ClusterId::LITTLE,
                ClusterId::BIG
            ]
        );
    }

    #[test]
    fn interleaved_counts_are_exact_for_uneven_splits() {
        let board = BoardSpec::odroid_xu3();
        for tl in 0..=8usize {
            let tb = 8 - tl;
            let a = asg(
                tb,
                tl,
                tb.min(4).max(usize::from(tb > 0)),
                tl.min(4).max(usize::from(tl > 0)),
            );
            let plan = plan_affinities(
                SchedulerKind::Interleaved,
                &a,
                &alloc(&[4, 5, 6, 7], &[0, 1, 2, 3]),
            );
            let n_little = plan
                .iter()
                .filter(|s| side_of(&board, s) == ClusterId::LITTLE)
                .count();
            assert_eq!(n_little, tl, "tl={tl}");
        }
    }

    #[test]
    fn threads_share_cores_round_robin_when_oversubscribed() {
        // 6 big threads on 4 used big cores: cores 4,5 get 2 threads.
        let plan = plan_affinities(
            SchedulerKind::Chunk,
            &asg(6, 2, 4, 2),
            &alloc(&[4, 5, 6, 7], &[0, 1]),
        );
        assert_eq!(plan.len(), 8);
        let big_targets: Vec<usize> = plan[2..].iter().map(|s| s.first().unwrap().0).collect();
        assert_eq!(big_targets, vec![4, 5, 6, 7, 4, 5]);
    }

    #[test]
    fn every_affinity_is_a_singleton() {
        let plan = plan_affinities(
            SchedulerKind::Interleaved,
            &asg(5, 3, 3, 3),
            &alloc(&[4, 5, 6], &[0, 1, 2]),
        );
        assert!(plan.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn default_core_allocation_uses_cluster_prefixes() {
        let board = BoardSpec::odroid_xu3();
        let alloc = default_core_allocation(&board, &asg(6, 2, 3, 2));
        assert_eq!(alloc[ClusterId::BIG.index()], cores(&[4, 5, 6]));
        assert_eq!(alloc[ClusterId::LITTLE.index()], cores(&[0, 1]));
    }

    #[test]
    fn all_big_assignment_has_no_little_pins() {
        let board = BoardSpec::odroid_xu3();
        let plan = plan_affinities(
            SchedulerKind::Chunk,
            &asg(8, 0, 4, 0),
            &alloc(&[4, 5, 6, 7], &[]),
        );
        assert!(plan.iter().all(|s| side_of(&board, s) == ClusterId::BIG));
    }

    #[test]
    fn tri_cluster_chunk_orders_slow_to_fast() {
        let board = BoardSpec::dynamiq_1p_3m_4l();
        let mut a = ThreadAssignment::empty(3);
        a.set(ClusterId(0), 3, 3);
        a.set(ClusterId(1), 2, 2);
        a.set(ClusterId(2), 1, 1);
        let alloc = default_core_allocation(&board, &a);
        let plan = plan_affinities(SchedulerKind::Chunk, &a, &alloc);
        let sides: Vec<usize> = plan.iter().map(|s| side_of(&board, s).index()).collect();
        assert_eq!(sides, vec![0, 0, 0, 1, 1, 2]);
    }

    #[test]
    fn tri_cluster_interleave_spreads_every_cluster() {
        let board = BoardSpec::dynamiq_1p_3m_4l();
        let mut a = ThreadAssignment::empty(3);
        a.set(ClusterId(0), 4, 4);
        a.set(ClusterId(1), 3, 3);
        a.set(ClusterId(2), 1, 1);
        let alloc = default_core_allocation(&board, &a);
        let plan = plan_affinities(SchedulerKind::Interleaved, &a, &alloc);
        assert_eq!(plan.len(), 8);
        let sides: Vec<usize> = plan.iter().map(|s| side_of(&board, s).index()).collect();
        // Exact per-cluster counts...
        for (i, want) in [(0usize, 4usize), (1, 3), (2, 1)] {
            assert_eq!(sides.iter().filter(|&&s| s == i).count(), want);
        }
        // ...and no cluster's threads form one contiguous chunk (that
        // would be the chunk scheduler, not interleaving).
        let first_little = sides.iter().position(|&s| s == 0).unwrap();
        let last_little = sides.iter().rposition(|&s| s == 0).unwrap();
        assert!(
            last_little - first_little >= 4,
            "littles too clumped: {sides:?}"
        );
    }

    #[test]
    #[should_panic(expected = "cores on cluster 1")]
    fn missing_cores_panic() {
        let _ = plan_affinities(SchedulerKind::Chunk, &asg(4, 0, 4, 0), &alloc(&[4, 5], &[]));
    }
}
