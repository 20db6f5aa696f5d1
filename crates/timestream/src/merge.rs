//! The merge behind `/query`: the in-range points of a scan's candidates,
//! each run already in time order, as rows ordered by (time, position),
//! where a candidate's position is its rank — and nothing past the limit.
//!
//! A *sweep* walks the runs in position order, emitting every run whose
//! next point sits at the earliest time and noting the earliest time
//! after it: one pass per distinct time, so when the runs share the
//! collection grid — every SPS series is written each round — a pass
//! emits a row for nearly every run and the merge is linear. Runs on
//! times of their own (price change-points) make a pass emit a row or
//! two for a walk over all of them; as soon as a pass emits fewer rows
//! than a heap would pay for them (`rows · log₂ runs < runs`), the runs
//! left are heaped and each further row costs one sift, O(log runs).
//! The input chooses; there is no setting.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// A row as a scan keeps it: `(time, candidate position, value)`.
pub(crate) type RowAt = (u64, usize, f64);

/// One run's next point and the points after it.
#[derive(Debug, Clone, Copy)]
struct Head<'a> {
    time: u64,
    value: f64,
    /// The run's position: its rank among the scan's candidates.
    at: usize,
    rest: &'a [(u64, f64)],
}

impl<'a> Head<'a> {
    fn new(at: usize, run: &'a [(u64, f64)]) -> Option<Head<'a>> {
        let (&(time, value), rest) = run.split_first()?;
        Some(Head {
            time,
            value,
            at,
            rest,
        })
    }

    fn row(&self) -> RowAt {
        (self.time, self.at, self.value)
    }

    /// Moves to the run's next point; `false` when there is none.
    fn advance(&mut self) -> bool {
        match Head::new(self.at, self.rest) {
            Some(next) => {
                *self = next;
                true
            }
            None => false,
        }
    }
}

/// Reversed on (time, position), so the heap's top is the least.
impl Ord for Head<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.at).cmp(&(self.time, self.at))
    }
}

impl PartialOrd for Head<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Head<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head<'_> {}

/// The first `limit` rows of `runs` — given in position order, each
/// sorted by time with one point per time — in (time, position) order.
pub(crate) fn merge<'a>(
    runs: impl IntoIterator<Item = &'a [(u64, f64)]>,
    limit: usize,
) -> Vec<RowAt> {
    merge_counted(runs, limit).0
}

/// [`merge`], and how many of its rows the heap emitted.
fn merge_counted<'a>(
    runs: impl IntoIterator<Item = &'a [(u64, f64)]>,
    limit: usize,
) -> (Vec<RowAt>, usize) {
    let runs = runs.into_iter();
    let mut heads = Vec::with_capacity(runs.size_hint().0);
    heads.extend(runs.enumerate().filter_map(|(at, run)| Head::new(at, run)));
    let total: usize = heads.iter().map(|h| h.rest.len() + 1).sum();
    let mut rows = Vec::with_capacity(total.min(limit));
    if sweep(&mut heads, limit, &mut rows) {
        return (rows, 0);
    }
    let swept = rows.len();
    let mut heap = BinaryHeap::from(heads);
    while rows.len() < limit {
        let Some(mut head) = heap.peek_mut() else {
            break;
        };
        rows.push(head.row());
        if !head.advance() {
            PeekMut::pop(head);
        }
    }
    let heaped = rows.len() - swept;
    (rows, heaped)
}

/// Emits rows pass by pass, one pass per distinct time; `true` when the
/// merge is done — the runs ran out or `limit` rows are out — and
/// `false` when a pass emitted too few rows to pay for its walk, with
/// `heads` left holding the runs not yet emitted.
fn sweep(heads: &mut Vec<Head<'_>>, limit: usize, rows: &mut Vec<RowAt>) -> bool {
    let Some(mut now) = heads.iter().map(|h| h.time).min() else {
        return true;
    };
    loop {
        let walked = heads.len();
        let before = rows.len();
        let mut next = u64::MAX;
        let mut kept = 0;
        for i in 0..walked {
            let mut head = heads[i];
            if head.time == now {
                if rows.len() == limit {
                    return true;
                }
                rows.push(head.row());
                if !head.advance() {
                    continue;
                }
            }
            next = next.min(head.time);
            heads[kept] = head;
            kept += 1;
        }
        heads.truncate(kept);
        if kept == 0 {
            return true;
        }
        now = next;
        let emitted = rows.len() - before;
        if emitted * (walked.ilog2().max(1) as usize) < walked {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The merge by its definition: every row, sorted, cut at the limit.
    fn by_sort(runs: &[Vec<(u64, f64)>], limit: usize) -> Vec<RowAt> {
        let mut rows: Vec<RowAt> = runs
            .iter()
            .enumerate()
            .flat_map(|(at, run)| run.iter().map(move |&(t, v)| (t, at, v)))
            .collect();
        rows.sort_by_key(|&(t, at, _)| (t, at));
        rows.truncate(limit);
        rows
    }

    fn merged(runs: &[Vec<(u64, f64)>], limit: usize) -> (Vec<RowAt>, usize) {
        merge_counted(runs.iter().map(Vec::as_slice), limit)
    }

    /// `n` runs on one grid of `len` times, `gaps` of them missing a
    /// point: what a region's SPS series hold.
    fn grid(n: usize, len: u64, gaps: usize) -> Vec<Vec<(u64, f64)>> {
        (0..n)
            .map(|s| {
                (0..len)
                    .filter(|&t| s >= gaps || t != 1)
                    .map(|t| (t * 600, s as f64))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn runs_on_one_grid_are_swept_and_never_heaped() {
        let runs = grid(40, 12, 3);
        for limit in [0, 1, 39, 40, 41, 100, usize::MAX] {
            let (rows, heaped) = merged(&runs, limit);
            assert_eq!(rows, by_sort(&runs, limit), "limit {limit}");
            assert_eq!(heaped, 0, "limit {limit}");
        }
    }

    #[test]
    fn runs_on_times_of_their_own_fall_back_to_the_heap() {
        // Change-points: every run starts on the first round, then each
        // changes at times no other run shares.
        let runs: Vec<Vec<(u64, f64)>> = (0..64u64)
            .map(|s| {
                let mut run = vec![(0, 1.0)];
                run.extend((1..5).map(|k| (k * 10_000 + s * 7, k as f64)));
                run
            })
            .collect();
        let (rows, heaped) = merged(&runs, usize::MAX);
        assert_eq!(rows, by_sort(&runs, usize::MAX));
        assert_eq!(rows.len(), 64 * 5);
        assert!(heaped >= 64 * 4 - 1, "the heap took over: {heaped}");
        let (rows, heaped) = merged(&runs, 70);
        assert_eq!(rows, by_sort(&runs, 70));
        assert_eq!(heaped, 5, "the first two passes were swept");
    }

    #[test]
    fn nothing_to_merge() {
        assert_eq!(merged(&[], 5), (vec![], 0));
        assert_eq!(merged(&[vec![], vec![]], 5), (vec![], 0));
        assert_eq!(merged(&[vec![(3, 1.0)], vec![]], 0), (vec![], 0));
    }

    proptest! {
        /// Ragged runs — grids of their own, single points, disjoint
        /// spans, change-points — merge as the sort defines, at limits
        /// around the total and inside a run of equal times, whichever
        /// way the sweep and the heap share the work.
        #[test]
        fn the_merge_is_the_sort(
            runs in prop::collection::vec(
                prop::collection::btree_set(0u64..40, 0..12),
                0..24,
            ),
            cut in 0usize..64,
        ) {
            let runs: Vec<Vec<(u64, f64)>> = runs
                .into_iter()
                .enumerate()
                .map(|(s, times)| times.into_iter().map(|t| (t, (s * 100 + t as usize) as f64)).collect())
                .collect();
            let total: usize = runs.iter().map(Vec::len).sum();
            for limit in [0, 1, cut, total.saturating_sub(1), total, total + 1, usize::MAX] {
                let (rows, heaped) = merged(&runs, limit);
                prop_assert_eq!(&rows, &by_sort(&runs, limit), "limit {}", limit);
                prop_assert!(heaped <= rows.len());
            }
        }
    }
}
