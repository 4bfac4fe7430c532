//! Scoped-thread data parallelism.
//!
//! The workspace's hot loops (GEMM row panels, im2col columns, per-channel
//! deformable sampling) all share one shape: split a big output buffer into
//! disjoint chunks and fill each independently. This module provides exactly
//! that — a `par_chunks_mut(..).enumerate().for_each(..)` combinator with
//! rayon's call-site syntax, built on `std::thread::scope`.
//!
//! Chunks are assigned to threads in contiguous bands decided purely by
//! `len / chunk_size` and the thread count, so a run's output never depends
//! on scheduling; with every chunk disjoint, results are bit-identical to
//! the sequential loop.
//!
//! **Worker-panic recovery.** A band whose worker thread panics is re-run
//! serially on the calling thread, in band order, after the parallel phase
//! — a transient worker death (the kind [`crate::fault`] injects at the
//! `par.band` point) costs only that band's work and leaves the output
//! byte-identical to an unfaulted run. This relies on chunk bodies being
//! idempotent (they fully overwrite their chunk — true of every caller in
//! the workspace). A *deterministic* panic in the chunk body re-panics on
//! the serial re-run and propagates to the caller as before: real bugs are
//! never swallowed.
//!
//! Set `DEFCON_THREADS=1` (or any count) to override the default of one
//! thread per available core; malformed values are a fatal, clearly
//! reported configuration error (see [`crate::env`]).
//!
//! [`map`] is the ordered map over independent work items that the
//! simulator's callers fan out with (one LUT key, sweep row, network cell
//! or serving miss per item). Item costs differ by orders of magnitude, so
//! its workers claim items one at a time instead of taking a contiguous
//! band each; a killed worker is recovered the same way.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Applies `f` to every item on up to `threads` workers and returns the
/// results in input order. `threads == 0` counts as 1.
///
/// Each worker claims the next unclaimed item from a shared counter and
/// stores the result in that item's slot, so the output equals the
/// sequential `items.iter().map(f)` whatever the thread count or the
/// claiming order. A worker that panics (the `par.band` fault point, keyed
/// by worker index, models a transient death) leaves the item it held
/// unfilled; the caller re-runs every unfilled item serially, in order,
/// after the join, so a deterministic panic in `f` still propagates.
///
/// While [`crate::obs`] is armed the map runs inline on the calling thread,
/// in order: obs records only from the arming thread, so this keeps a
/// trace the same bytes at every thread count.
pub fn map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = if crate::obs::armed() {
        1
    } else {
        threads.clamp(1, items.len().max(1))
    };
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (f, slots, next) = (&f, &slots, &next);
            scope.spawn(move || {
                // A panic ends this worker; the re-run below fills its item.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    crate::fault::panic_at("par.band", w as u64);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let r = f(item);
                        // A store is one assignment, so a poisoned slot
                        // is still valid.
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                    }
                }));
            });
        }
    });
    slots
        .into_iter()
        .zip(items)
        .map(|(slot, item)| {
            let done = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            done.unwrap_or_else(|| f(item))
        })
        .collect()
}

/// Worker threads used by [`ParChunksMutEnumerate::for_each`]: the
/// `DEFCON_THREADS` env var if set (a malformed value exits with a clear
/// error), else available parallelism.
pub fn max_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        crate::env::or_die(crate::env::threads_override()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Extension trait adding `par_chunks_mut` to slices.
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into `chunk_size`-element chunks (the last may be
    /// shorter) for parallel iteration.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            data: self,
            chunk_size,
            threads: None,
        }
    }
}

/// A pending parallel chunk iteration (created by
/// [`ParallelSliceMut::par_chunks_mut`]).
pub struct ParChunksMut<'a, T: Send> {
    data: &'a mut [T],
    chunk_size: usize,
    threads: Option<usize>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Overrides the worker-thread count for this iteration only (instead
    /// of the process-wide [`max_threads`] default). `n = 1` runs the whole
    /// iteration inline on the calling thread, which callers use to get the
    /// exact sequential evaluation order.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n > 0, "thread count must be positive");
        self.threads = Some(n);
        self
    }

    /// Pairs each chunk with its index, like `Iterator::enumerate`.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate(self)
    }

    /// Runs `f` on every chunk across worker threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// An enumerated pending parallel chunk iteration.
pub struct ParChunksMutEnumerate<'a, T: Send>(ParChunksMut<'a, T>);

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    /// Runs `f((chunk_index, chunk))` for every chunk, spreading chunks over
    /// up to [`max_threads`] scoped threads in contiguous bands.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let ParChunksMut {
            data,
            chunk_size,
            threads,
        } = self.0;
        let n_chunks = data.len().div_ceil(chunk_size);
        let threads = threads.unwrap_or_else(max_threads).min(n_chunks);
        if threads <= 1 {
            for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
                f((i, chunk));
            }
            return;
        }
        // Band layout is a pure function of (len, chunk_size, threads):
        // balanced contiguous bands, the first `n_chunks % threads` bands
        // get one extra chunk. Computed up front so the panic-recovery
        // re-run below can re-derive any band's element range.
        let mut layout = Vec::with_capacity(threads);
        {
            let mut chunk_base = 0usize;
            let mut elem_start = 0usize;
            for t in 0..threads {
                let band_chunks = n_chunks / threads + usize::from(t < n_chunks % threads);
                let band_elems = (band_chunks * chunk_size).min(data.len() - elem_start);
                layout.push((chunk_base, elem_start, band_elems));
                chunk_base += band_chunks;
                elem_start += band_elems;
            }
        }
        let failed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        {
            // Reborrow so `data` is usable again for the recovery pass once
            // the scope (and with it every band borrow) has ended.
            let mut rest: &mut [T] = &mut *data;
            std::thread::scope(|scope| {
                let f = &f;
                let failed = &failed;
                for (b, &(chunk_base, _, band_elems)) in layout.iter().enumerate() {
                    let (band, tail) = rest.split_at_mut(band_elems);
                    rest = tail;
                    scope.spawn(move || {
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            // Fault point: a transient worker death. Keyed
                            // by band index so the decision is independent
                            // of thread scheduling. The serial re-run below
                            // does not consult it — the modelled hazard
                            // lives in the parallel dispatch layer only.
                            crate::fault::panic_at("par.band", b as u64);
                            for (j, chunk) in band.chunks_mut(chunk_size).enumerate() {
                                f((chunk_base + j, chunk));
                            }
                        }));
                        if run.is_err() {
                            failed.lock().unwrap_or_else(|e| e.into_inner()).push(b);
                        }
                    });
                }
            });
        }
        let mut failed = failed.into_inner().unwrap_or_else(|e| e.into_inner());
        if failed.is_empty() {
            return;
        }
        // Graceful degradation: re-run each failed band serially, in band
        // order, on the calling thread. Chunk bodies fully overwrite their
        // chunk, so the result is byte-identical to an unfaulted run. A
        // deterministic panic re-fires here and propagates normally.
        failed.sort_unstable();
        for b in failed {
            let (chunk_base, elem_start, band_elems) = layout[b];
            let band = &mut data[elem_start..elem_start + band_elems];
            for (j, chunk) in band.chunks_mut(chunk_size).enumerate() {
                f((chunk_base + j, chunk));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_and_coverage_match_sequential_chunks() {
        let _quiet = crate::fault::quiesce();
        let mut par = vec![0usize; 1013]; // deliberately not a multiple of the chunk size
        par.par_chunks_mut(32).enumerate().for_each(|(i, chunk)| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = i * 1000 + k;
            }
        });
        let mut seq = vec![0usize; 1013];
        for (i, chunk) in seq.chunks_mut(32).enumerate() {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = i * 1000 + k;
            }
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn single_chunk_runs_inline() {
        let mut data = vec![1.0f32; 10];
        data.par_chunks_mut(64).enumerate().for_each(|(i, chunk)| {
            assert_eq!(i, 0);
            for v in chunk {
                *v += 1.0;
            }
        });
        assert!(data.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn empty_slice_is_a_no_op() {
        let mut data: Vec<u8> = Vec::new();
        data.par_chunks_mut(4)
            .enumerate()
            .for_each(|_| panic!("no chunks expected"));
    }

    #[test]
    fn un_enumerated_for_each_visits_every_chunk() {
        let _quiet = crate::fault::quiesce();
        let mut data = vec![0u32; 257];
        data.par_chunks_mut(16).for_each(|chunk| {
            for v in chunk {
                *v = 7;
            }
        });
        assert!(data.iter().all(|&v| v == 7));
    }

    #[test]
    fn more_chunks_than_threads() {
        let _quiet = crate::fault::quiesce();
        let mut data = vec![0u64; 4096];
        data.par_chunks_mut(1)
            .enumerate()
            .for_each(|(i, chunk)| chunk[0] = i as u64);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn chunk_size_larger_than_slice_is_one_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut data = vec![0u8; 7];
        let visits = AtomicUsize::new(0);
        data.par_chunks_mut(1000)
            .enumerate()
            .for_each(|(i, chunk)| {
                assert_eq!(i, 0);
                assert_eq!(chunk.len(), 7);
                visits.fetch_add(1, Ordering::Relaxed);
            });
        assert_eq!(visits.load(Ordering::Relaxed), 1);
    }

    /// Explicit thread counts must not change results: the band assignment
    /// is a pure function of (len, chunk_size), never of scheduling.
    #[test]
    fn results_identical_for_one_vs_many_threads() {
        let _quiet = crate::fault::quiesce();
        let fill = |threads: usize| {
            let mut data = vec![0u64; 1537];
            data.par_chunks_mut(8)
                .threads(threads)
                .enumerate()
                .for_each(|(i, chunk)| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (i as u64) << 32 | k as u64;
                    }
                });
            data
        };
        let serial = fill(1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(fill(threads), serial, "threads = {threads}");
        }
    }

    /// A panicking worker must propagate to the caller (via the scoped-join
    /// at the end of `for_each`), never be swallowed.
    #[test]
    fn worker_panic_propagates() {
        let _quiet = crate::fault::quiesce();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut data = vec![0u32; 64];
            data.par_chunks_mut(4)
                .threads(4)
                .enumerate()
                .for_each(|(i, _)| {
                    if i == 7 {
                        panic!("worker 7 exploded");
                    }
                });
        }));
        assert!(result.is_err(), "worker panic was swallowed");
    }

    /// An injected transient worker death must be survived: the killed
    /// band is re-run serially and the output is byte-identical to an
    /// unfaulted run.
    #[test]
    fn injected_band_panic_recovers_byte_identically() {
        use crate::fault::{self, FaultPlan, Schedule};
        let fill = |threads: usize| {
            let mut data = vec![0u64; 1537];
            data.par_chunks_mut(8)
                .threads(threads)
                .enumerate()
                .for_each(|(i, chunk)| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (i as u64) << 32 | k as u64;
                    }
                });
            data
        };
        let clean = fill(4);
        let faulted = {
            let _g = fault::arm(FaultPlan::new(21).point("par.band", Schedule::Nth(2)));
            let out = fill(4);
            assert_eq!(fault::log(), vec!["par.band#2"], "fault must have fired");
            out
        };
        assert_eq!(faulted, clean);
    }

    /// Multiple simultaneous band deaths recover too.
    #[test]
    fn all_bands_panicking_still_recovers() {
        use crate::fault::{self, FaultPlan, Schedule};
        let _g = fault::arm(FaultPlan::new(4).point("par.band", Schedule::Always));
        let mut data = vec![0u32; 256];
        data.par_chunks_mut(4)
            .threads(4)
            .enumerate()
            .for_each(|(i, chunk)| {
                for v in chunk.iter_mut() {
                    *v = i as u32;
                }
            });
        for (i, chunk) in data.chunks(4).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as u32));
        }
        assert_eq!(
            fault::log(),
            vec!["par.band#0", "par.band#1", "par.band#2", "par.band#3"]
        );
    }

    #[test]
    fn map_keeps_input_order_at_every_thread_count() {
        let _quiet = crate::obs::quiesce();
        let _faults = crate::fault::quiesce();
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|v| v * v + 1).collect();
        for threads in [0usize, 1, 2, 3, 8, 64] {
            assert_eq!(
                map(&items, threads, |v| v * v + 1),
                serial,
                "threads = {threads}"
            );
        }
        assert!(map(&[] as &[u64], 4, |v| *v).is_empty());
    }

    /// A killed worker's items are re-run on the caller; the result is the
    /// same vector an unfaulted map returns.
    #[test]
    fn map_recovers_a_killed_worker() {
        use crate::fault::{self, FaultPlan, Schedule};
        let _quiet = crate::obs::quiesce();
        let _g = fault::arm(FaultPlan::new(5).point("par.band", Schedule::Nth(1)));
        let items: Vec<usize> = (0..10).collect();
        assert_eq!(
            map(&items, 4, |v| v * 3),
            items.iter().map(|v| v * 3).collect::<Vec<_>>()
        );
        assert_eq!(fault::log(), vec!["par.band#1"], "fault must have fired");
    }

    /// A panic that is not transient re-fires on the caller's re-run and
    /// reaches the caller.
    #[test]
    fn map_propagates_a_deterministic_panic() {
        let _quiet = crate::obs::quiesce();
        let _faults = crate::fault::quiesce();
        let items: Vec<usize> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            map(&items, 4, |&i| {
                assert_ne!(i, 5, "item 5 exploded");
                i
            })
        });
        assert!(result.is_err(), "item panic was swallowed");
    }

    /// Armed obs keeps every item on the recording thread, so no worker's
    /// spans are lost.
    #[test]
    fn map_runs_inline_while_obs_is_armed() {
        let _obs = crate::obs::arm(crate::obs::ObsConfig::default());
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..8).collect();
        let on_caller = map(&items, 4, |i| {
            drop(crate::obs::span_with("item", || {
                vec![("i", crate::json::Json::from(*i))]
            }));
            std::thread::current().id() == caller
        });
        assert!(on_caller.iter().all(|&b| b));
        let spans = crate::obs::snapshot();
        let order: Vec<u64> = spans.iter().map(|s| s.u64_arg("i").unwrap()).collect();
        assert_eq!(order, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_thread_override_is_rejected() {
        let mut data = vec![0u8; 4];
        data.par_chunks_mut(2).threads(0).for_each(|_| {});
    }
}
