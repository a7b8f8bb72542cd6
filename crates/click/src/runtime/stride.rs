//! Stride scheduling, Click's task scheduler, at one ticket a task.
//!
//! The scheduler always runs the runnable task with the smallest *pass*
//! value (ties by id) and advances that task's pass by one stride, so
//! every task that stays runnable gets the same share — deterministic, and
//! what Click uses to arbitrate between polling tasks. Click's tasks can
//! hold unequal *tickets* (stride = a constant ÷ tickets); no element here
//! ever did, so every stride is 1 and the schedule is a round-robin over
//! the runnable tasks.
//!
//! Runnable tasks sit in a deque kept sorted by `(pass, id)`, so the next
//! task is the front. [`StrideScheduler::next`] pops, charges and *parks*
//! it — one store — and [`StrideScheduler::wake`] puts a parked task back
//! in order: the caller wakes its pick again if the quantum was useful,
//! and a round costs what its runnable tasks cost. Where a rejoining pass
//! is the largest it goes to the back, O(1) — always so for the last
//! pick. A task that sat parked through later picks rejoins at the last
//! pick's pass: its slot is found by binary search and opened by moving at
//! most n/2 entries of 16 bytes; [`StrideScheduler::add`] costs the same.

use std::collections::VecDeque;

/// One schedulable task. The derived order — `pass`, then `id` — is the
/// scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TaskState {
    pass: u64,
    /// Caller-supplied identifier (e.g. element id).
    id: usize,
}

/// A stride scheduler over tasks identified by `usize` ids.
#[derive(Debug, Default)]
pub struct StrideScheduler {
    /// Runnable tasks, ascending in [`TaskState`]'s order: the front runs
    /// next.
    tasks: VecDeque<TaskState>,
    /// Parked tasks by id (ids are small: element ids).
    parked: Vec<Option<TaskState>>,
    /// Pass of the last pick before its charge; `tasks` sorts after it.
    now: u64,
    /// The latest pass a [`StrideScheduler::charge`] stood for a pick at;
    /// `now` catches up with it at [`StrideScheduler::settle`].
    charged: u64,
}

impl StrideScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> StrideScheduler {
        StrideScheduler::default()
    }

    /// Puts `task` where the order wants it: at the back when nothing
    /// sorts after it (one comparison), else at the slot a binary search
    /// finds.
    fn insert(&mut self, task: TaskState) {
        if self.tasks.back().is_none_or(|last| *last <= task) {
            self.tasks.push_back(task);
        } else {
            let at = self.tasks.partition_point(|t| *t <= task);
            self.tasks.insert(at, task);
        }
    }

    /// Adds a runnable task.
    pub fn add(&mut self, id: usize) {
        // New tasks join at the current minimum pass so they cannot
        // monopolise the scheduler on entry.
        let pass = self.tasks.front().map_or(self.now, |t| t.pass);
        self.insert(TaskState { pass, id });
    }

    /// Takes the next runnable task off the run list, charges it one
    /// quantum, parks it and returns its id: it runs again once
    /// [`StrideScheduler::wake`] names it.
    ///
    /// Returns `None` when no task is runnable.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<usize> {
        let mut task = self.tasks.pop_front()?;
        self.now = task.pass;
        task.pass += 1;
        if task.id >= self.parked.len() {
            self.parked.resize(task.id + 1, None);
        }
        self.parked[task.id] = Some(task);
        Some(task.id)
    }

    /// Whether task `id` is parked.
    pub fn is_parked(&self, id: usize) -> bool {
        self.parked.get(id).is_some_and(Option::is_some)
    }

    /// Makes a parked task runnable again, at its own pass or the last
    /// pick's, whichever is later; `false` when `id` is not parked.
    pub fn wake(&mut self, id: usize) -> bool {
        let Some(mut task) = self.parked.get_mut(id).and_then(Option::take) else {
            return false;
        };
        task.pass = task.pass.max(self.now);
        self.insert(task);
        true
    }

    /// Charges parked task `id` a quantum it does not run, leaving it
    /// parked: its pass moves as [`StrideScheduler::wake`] followed by the
    /// [`StrideScheduler::next`] that picked it would move it, so it comes
    /// back in the order that pick would have given it. A task that is
    /// not parked is left as it is.
    ///
    /// The pick's other effect, raising `now` to its pass, is deferred:
    /// a wake made while other tasks run sees `now` as they set it,
    /// wherever the charged pick would have fallen among them, and once
    /// nothing is runnable the pick would surely have been made — which
    /// [`StrideScheduler::settle`] books.
    pub fn charge(&mut self, id: usize) {
        if let Some(task) = self.parked.get_mut(id).and_then(Option::as_mut) {
            let pass = task.pass.max(self.now);
            self.charged = self.charged.max(pass);
            task.pass = pass + 1;
        }
    }

    /// Books the picks charged so far as made; call it when no task is
    /// runnable, before waking any.
    pub fn settle(&mut self) {
        debug_assert!(self.tasks.is_empty(), "settle with tasks runnable");
        self.now = self.now.max(self.charged);
    }

    /// Number of runnable tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` when no task is runnable.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One quantum of a task that always has work: picked, then woken
    /// again, as the driver does after a useful quantum.
    fn run_next(sched: &mut StrideScheduler) -> Option<usize> {
        let id = sched.next()?;
        assert!(sched.wake(id), "the pick is parked");
        Some(id)
    }

    /// The scheduler this module shipped before the sorted deque: a
    /// linear `min_by_key` scan over a `Vec`. Kept as the reference the
    /// deque must agree with call for call.
    #[derive(Default)]
    struct NaiveScheduler {
        /// `(id, pass)` in insertion order.
        tasks: Vec<(usize, u64)>,
    }

    impl NaiveScheduler {
        fn add(&mut self, id: usize) {
            let pass = self.tasks.iter().map(|t| t.1).min().unwrap_or(0);
            self.tasks.push((id, pass));
        }

        fn next(&mut self) -> Option<usize> {
            let (idx, _) = self
                .tasks
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| (t.1, t.0))?;
            let task = &mut self.tasks[idx];
            task.1 += 1;
            Some(task.0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of `add` (ids reused so duplicates
        /// occur) and `next` return the same id sequence from the sorted
        /// deque and from the linear scan.
        #[test]
        fn sorted_deque_matches_linear_scan(
            ops in prop::collection::vec((0u8..8, 0usize..12), 1..400),
        ) {
            let mut sched = StrideScheduler::new();
            let mut naive = NaiveScheduler::default();
            for (op, id) in ops {
                match op {
                    0 | 1 => {
                        sched.add(id);
                        naive.add(id);
                    }
                    _ => prop_assert_eq!(run_next(&mut sched), naive.next()),
                }
                prop_assert_eq!(sched.len(), naive.tasks.len());
            }
            // Drain a full tail so late divergence in pass values shows.
            for _ in 0..64 {
                prop_assert_eq!(run_next(&mut sched), naive.next());
            }
        }
    }

    /// Rounds of a driver over `work.len()` pollers and one drain (the
    /// last id): a round arms the pollers, poller `i` has `work[round][i]`
    /// useful quanta, each of which hands the drain a packet and wakes
    /// it, and the drain takes one a quantum. `charge` decides what
    /// happens to a poller with nothing to do: charged and left parked, or
    /// woken and polled empty. Returns the useful picks in order.
    fn useful_picks(work: &[Vec<u8>], charge: bool) -> Vec<usize> {
        let drain = work[0].len();
        let mut s = StrideScheduler::new();
        for id in 0..=drain {
            s.add(id);
        }
        let mut picks = Vec::new();
        let mut backlog = 0;
        for round in work {
            let mut left = round.clone();
            let mut settled = false;
            loop {
                if s.is_empty() {
                    s.settle();
                    if settled {
                        break;
                    }
                    settled = true;
                    for (id, &n) in left.iter().enumerate() {
                        if n > 0 || !charge {
                            s.wake(id);
                        } else {
                            s.charge(id);
                        }
                    }
                    if s.is_empty() {
                        break;
                    }
                }
                let id = s.next().unwrap();
                let useful = if id == drain {
                    backlog > 0
                } else {
                    left[id] > 0
                };
                if !useful {
                    continue;
                }
                settled = false;
                picks.push(id);
                if id == drain {
                    backlog -= 1;
                    if backlog > 0 {
                        s.wake(drain);
                    }
                } else {
                    left[id] -= 1;
                    backlog += 1;
                    s.wake(drain);
                    if left[id] > 0 || !charge {
                        s.wake(id);
                    } else {
                        s.charge(id);
                    }
                }
            }
        }
        picks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Charging a poller that has nothing to do, instead of polling
        /// it empty, leaves every useful pick where it was.
        #[test]
        fn a_charged_poll_moves_no_useful_pick(
            pollers in 1usize..6,
            rounds in prop::collection::vec(prop::collection::vec(0u8..4, 6..7), 1..6),
        ) {
            let work: Vec<Vec<u8>> = rounds.iter().map(|r| r[..pollers].to_vec()).collect();
            prop_assert_eq!(useful_picks(&work, true), useful_picks(&work, false));
        }
    }

    #[test]
    fn equal_tickets_alternate_fairly() {
        let mut s = StrideScheduler::new();
        s.add(0);
        s.add(1);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[run_next(&mut s).unwrap()] += 1;
        }
        assert_eq!(counts, [50, 50]);
    }

    #[test]
    fn late_joiner_is_not_starved_nor_dominant() {
        let mut s = StrideScheduler::new();
        s.add(0);
        for _ in 0..50 {
            run_next(&mut s);
        }
        s.add(1);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[run_next(&mut s).unwrap()] += 1;
        }
        assert!(counts[1] >= 45 && counts[1] <= 55, "counts {counts:?}");
    }

    #[test]
    fn a_pick_stays_parked_until_it_is_woken() {
        let mut s = StrideScheduler::new();
        s.add(3);
        s.add(5);
        assert_eq!(s.next(), Some(3));
        assert!(s.is_parked(3) && !s.is_parked(5));
        // Only task 5 is runnable now, however often it runs.
        assert_eq!(
            (s.len(), run_next(&mut s), run_next(&mut s)),
            (1, Some(5), Some(5))
        );
        assert!(s.wake(3));
        assert!(!s.wake(3), "a runnable task is not woken twice");
        // Sleeping earned no credit: 3 rejoins at the pass 5 last ran at,
        // one stride behind 5 and not the two it sat out.
        let picks: Vec<_> = (0..5).map(|_| run_next(&mut s).unwrap()).collect();
        assert_eq!(picks, [3, 3, 5, 3, 5]);
    }
}
