//! Scoped worker-thread fan-out: the one place library code spawns
//! short-lived parallel workers.
//!
//! Two shapes share one spawner:
//!
//! - [`fan_out`] runs `count` independent work units over at most
//!   `workers` threads and returns the results in unit order. Campaign
//!   cells, transfer groups and GA population chunks all go through it.
//! - The blocked GEMM/im2col kernels split their *output rows* into at
//!   most [`threads`] contiguous bands, and each band runs the **same
//!   serial microkernel** on its disjoint sub-slice of the output. Every
//!   output element is therefore produced by exactly the code path that
//!   produces it serially, so threaded outputs are `==`-identical to
//!   single-threaded ones at any thread count.
//!
//! Thread counts are pure speed knobs, like [`crate::KernelPolicy`].
//! Spawning allocates, so the kernels only spread when the resolved
//! count exceeds 1 *and* the region is above a work threshold; with one
//! thread every kernel runs inline and the steady-state zero-allocation
//! guarantee is untouched.
//!
//! # The nesting rule
//!
//! Parallel loops nest: a campaign spreads cells over `jobs` workers,
//! each cell's GA spreads its population over `eval_threads`, and each
//! evaluation's kernels spread rows over [`threads`]. Only the outermost
//! loop that really spreads gets threads:
//!
//! - a worker of a fan-out that spawned two or more threads is *marked*;
//! - every fan-out or kernel row split started on a marked thread runs
//!   inline on that thread ([`width`] reports 1 there);
//! - a fan-out that resolves to one worker runs inline on the caller and
//!   leaves it unmarked, so the next level down may still spread.
//!
//! The rule decides only where work runs, never what it computes.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configured kernel worker count; `0` means "resolve `available_parallelism`".
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the workers of a fan-out that spawned two or more threads.
    static MARKED: Cell<bool> = const { Cell::new(false) };
}

/// Sets the process-wide kernel worker-thread count.
///
/// `0` restores the default (resolve [`std::thread::available_parallelism`]
/// at each query). Outputs are `==`-identical at any setting; this is the
/// knob behind every `--threads` CLI flag.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The resolved worker-thread count the kernels use outside a fan-out.
pub fn threads() -> usize {
    resolve(THREADS.load(Ordering::Relaxed))
}

/// Resolves a worker-count setting: `0` means every available core.
pub fn resolve(n: usize) -> usize {
    match n {
        0 => std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
        n => n,
    }
}

/// How many threads a fan-out of `requested` workers started here would
/// use: 1 on a marked thread (see the [nesting rule](self)), otherwise
/// [`resolve`]`(requested)`.
pub fn width(requested: usize) -> usize {
    if MARKED.with(Cell::get) {
        1
    } else {
        resolve(requested)
    }
}

/// Runs every task on its own scoped thread, marked as a fan-out worker,
/// and waits for all of them. A task's panic is re-raised with its own
/// payload once every thread has joined. Callers pass two or more tasks.
fn spawn_marked<I>(tasks: I)
where
    I: IntoIterator,
    I::Item: FnOnce() + Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                scope.spawn(move || {
                    MARKED.with(|marked| marked.set(true));
                    task();
                })
            })
            .collect();
        debug_assert!(handles.len() >= 2, "a lone task belongs inline on the caller");
        let mut panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
}

/// Runs `count` independent work units over at most `workers` threads
/// (`0` means every core) and returns the results in unit order.
///
/// Units are claimed through a shared atomic cursor, so which thread runs
/// which unit depends on timing, but every result lands in the slot of
/// its index: the returned vector is independent of scheduling. `run`
/// must therefore be a pure function of the unit index. With one
/// effective worker, including any call on a marked thread, the units
/// run inline in index order.
///
/// # Panics
///
/// Re-raises the first worker panic after every worker has stopped.
pub fn fan_out<T, F>(workers: usize, count: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = width(workers).min(count);
    if workers <= 1 {
        return (0..count).map(run).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(count, || None);
    let slots = Mutex::new(slots);
    let cursor = AtomicUsize::new(0);
    let claim = || loop {
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        if k >= count {
            break;
        }
        let value = run(k);
        slots.lock().expect("no worker panics holding the slots")[k] = Some(value);
    };
    spawn_marked((0..workers).map(|_| &claim));
    let slots = slots.into_inner().expect("no worker panics holding the slots");
    slots.into_iter().map(|slot| slot.expect("every unit filled")).collect()
}

/// Minimum per-region work (multiply-adds or elements moved) before the
/// row split spreads. Below this, spawn overhead dominates and the
/// kernels run inline on the calling thread.
pub(crate) const MIN_PAR_WORK: usize = 32 * 1024;

/// Splits `out` (an `m × row_width` row-major buffer) into contiguous row
/// bands and runs `f(first_row, band)` on each — inline when one band
/// suffices or the caller is a marked fan-out worker, on scoped worker
/// threads otherwise. `work` is the region's total work estimate checked
/// against [`MIN_PAR_WORK`].
///
/// Bands partition the rows, so any `f` that computes band rows exactly as
/// the serial kernel computes them yields bit-identical output by
/// construction.
pub(crate) fn parallel_row_bands<F>(out: &mut [f32], row_width: usize, m: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), m * row_width);
    let t = width(threads()).min(m);
    if t <= 1 || row_width == 0 || work < MIN_PAR_WORK {
        f(0, out);
        return;
    }
    let rows_per_band = m.div_ceil(t);
    let f = &f;
    spawn_marked(
        out.chunks_mut(rows_per_band * row_width)
            .enumerate()
            .map(|(band, chunk)| move || f(band * rows_per_band, chunk)),
    );
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::Mutex;

    /// Serialises unit tests that mutate the process-wide thread count.
    pub(crate) static THREAD_KNOB: Mutex<()> = Mutex::new(());
}

#[cfg(test)]
mod tests {
    use super::test_support::THREAD_KNOB;
    use super::*;
    use std::thread::ThreadId;

    fn marked() -> bool {
        MARKED.with(Cell::get)
    }

    #[test]
    fn zero_resolves_available_parallelism() {
        let _guard = THREAD_KNOB.lock().unwrap();
        set_threads(0);
        assert!(threads() >= 1);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(resolve(0) >= 1);
        assert_eq!(resolve(5), 5);
    }

    #[test]
    fn row_bands_partition_rows_at_any_thread_count() {
        let _guard = THREAD_KNOB.lock().unwrap();
        let (m, w) = (13, 7);
        for t in [1, 2, 4, 8] {
            set_threads(t);
            let mut out = vec![0.0f32; m * w];
            // Force dispatch regardless of size by passing a large work hint.
            parallel_row_bands(&mut out, w, m, MIN_PAR_WORK, |row0, band| {
                for (r, row) in band.chunks_mut(w).enumerate() {
                    row.fill((row0 + r) as f32);
                }
            });
            for r in 0..m {
                assert!(out[r * w..(r + 1) * w].iter().all(|&v| v == r as f32), "t={t} row {r}");
            }
        }
        set_threads(0);
    }

    #[test]
    fn small_work_runs_inline() {
        let _guard = THREAD_KNOB.lock().unwrap();
        set_threads(4);
        let caller = std::thread::current().id();
        let mut out = vec![0.0f32; 8];
        parallel_row_bands(&mut out, 2, 4, MIN_PAR_WORK - 1, |_, band| {
            assert_eq!(std::thread::current().id(), caller, "below-threshold work must inline");
            band.fill(1.0);
        });
        assert!(out.iter().all(|&v| v == 1.0));
        set_threads(0);
    }

    #[test]
    fn results_come_back_in_unit_order() {
        for workers in [0, 1, 2, 3, 8] {
            let out = fan_out(workers, 17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn empty_grid_spawns_nothing() {
        let out: Vec<usize> = fan_out(4, 0, |_| unreachable!("no units to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_clamps_to_unit_count() {
        // More workers than units must not deadlock or drop results.
        let out = fan_out(64, 2, |i| i + 1);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn nested_fan_out_runs_on_the_outer_worker() {
        let outer = fan_out(2, 2, |_| {
            let worker = std::thread::current().id();
            assert!(marked(), "a worker of a two-thread fan-out is marked");
            assert_eq!(width(8), 1);
            let inner: Vec<ThreadId> = fan_out(4, 6, |_| std::thread::current().id());
            inner.into_iter().all(|id| id == worker)
        });
        assert_eq!(outer, vec![true, true]);
        assert!(!marked(), "the caller of a fan-out stays unmarked");
    }

    #[test]
    fn row_bands_inline_on_a_fan_out_worker() {
        let _guard = THREAD_KNOB.lock().unwrap();
        set_threads(4);
        let (m, w) = (16, 8);
        let inline = fan_out(2, 2, |_| {
            let worker = std::thread::current().id();
            let mut out = vec![0.0f32; m * w];
            let bands = Mutex::new(Vec::new());
            parallel_row_bands(&mut out, w, m, MIN_PAR_WORK, |row0, band| {
                bands.lock().unwrap().push((row0, std::thread::current().id()));
                band.fill(1.0);
            });
            let bands = bands.into_inner().unwrap();
            bands == vec![(0, worker)] && out.iter().all(|&v| v == 1.0)
        });
        // Outside a fan-out the same call still spreads.
        let caller = std::thread::current().id();
        let spread = Mutex::new(Vec::new());
        let mut out = vec![0.0f32; m * w];
        parallel_row_bands(&mut out, w, m, MIN_PAR_WORK, |_, _| {
            spread.lock().unwrap().push(std::thread::current().id());
        });
        set_threads(0);
        assert_eq!(inline, vec![true, true], "row bands on a marked worker run inline");
        let spread = spread.into_inner().unwrap();
        assert_eq!(spread.len(), 4);
        assert!(spread.iter().all(|&id| id != caller));
    }

    #[test]
    fn one_worker_fan_out_leaves_the_caller_unmarked() {
        let caller = std::thread::current().id();
        let followers = fan_out(1, 3, |_| {
            assert_eq!(std::thread::current().id(), caller, "one worker runs inline");
            assert!(!marked());
            // Still unmarked, so a fan-out from here spreads.
            fan_out(2, 2, |_| std::thread::current().id())
        });
        for ids in followers {
            assert!(ids.iter().all(|&id| id != caller));
        }
        assert!(!marked());
    }

    #[test]
    fn worker_panic_propagates_with_its_payload() {
        for workers in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                fan_out(workers, 5, |i| {
                    if i == 3 {
                        panic!("unit {i} failed");
                    }
                    i
                })
            })
            .expect_err("a worker panic must reach the caller");
            assert_eq!(caught.downcast_ref::<String>().map(String::as_str), Some("unit 3 failed"));
        }
    }
}
