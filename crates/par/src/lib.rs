//! Scoped, deterministic parallel execution for the workspace's hot loops.
//!
//! Everything here runs on `std::thread::scope` — threads are spawned per
//! call, borrow their inputs, and are joined before the call returns, so no
//! `'static` bounds, no thread pool to shut down, and no work escapes the
//! caller's stack frame.
//!
//! # Thread count
//!
//! [`num_threads`] reads the `IP_THREADS` environment variable; absent or
//! unparseable, it falls back to [`std::thread::available_parallelism`]. A
//! value of `1` (either way) makes every combinator run serially inline —
//! the degenerate path has zero spawn overhead, which keeps single-core
//! containers and `IP_THREADS=1` debugging honest. A batch of fewer than two
//! items also runs inline: there is nothing to split, so a spawn would be
//! pure overhead.
//!
//! # Determinism
//!
//! Every combinator partitions its *output* into disjoint contiguous regions,
//! one region per task, and each output element is computed by exactly one
//! task with exactly the per-element operation order of the serial code. No
//! atomics, no reduction trees, no work stealing: results are bit-identical
//! to the serial path for any thread count. The workspace's property tests
//! assert `par_map(xs, f) == xs.iter().map(f).collect()` with `==`, not
//! approximate equality.

use std::num::NonZeroUsize;

/// Number of worker threads parallel combinators will use.
///
/// `IP_THREADS` wins when set to a positive integer; otherwise
/// [`std::thread::available_parallelism`] (1 if even that is unavailable).
pub fn num_threads() -> usize {
    match std::env::var("IP_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available(),
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `len` items into at most `threads` contiguous ranges of
/// near-equal size (the first `len % threads` ranges are one longer).
/// Empty ranges are never produced.
fn partition(len: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let threads = threads.min(len).max(1);
    let base = len / threads;
    let extra = len % threads;
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Maps `f` over `items`, preserving order. Equivalent to
/// `items.iter().map(f).collect()` — bit-identically, for any thread count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(num_threads(), items, f)
}

/// [`par_map`] with an explicit thread count.
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let ranges = partition(items.len(), threads);
    let mut chunks: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let slice = &items[r.clone()];
                let f = &f;
                scope.spawn(move || slice.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ip-par worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in &mut chunks {
        out.append(chunk);
    }
    out
}

/// Maps `f(index, &mut item)` over `items`, preserving index order in the
/// results. This is the indexed fan-out over *stateful* items the fleet
/// simulator uses: each item is mutated in place by exactly one invocation,
/// results come back in item order without any intermediate `(index, R)`
/// re-sorting, and the per-item operation order is exactly the serial
/// `iter_mut().enumerate()` order — bit-identical for any thread count.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    par_map_mut_with(num_threads(), items, f)
}

/// [`par_map_mut`] with an explicit thread count.
///
/// With `threads <= 1` or fewer than two items, everything runs inline on
/// the caller's thread — no scope, no spawn, no handoff.
pub fn par_map_mut_with<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let ranges = partition(items.len(), threads);
    let mut chunks: Vec<Vec<R>> = std::thread::scope(|scope| {
        // Peel each thread's contiguous sub-slice off the front so every
        // item is exclusively owned by one worker, with its global index.
        let mut rest = &mut *items;
        let mut handles = Vec::with_capacity(ranges.len());
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let base = r.start;
            let f = &f;
            handles.push(scope.spawn(move || {
                head.iter_mut()
                    .enumerate()
                    .map(|(k, item)| f(base + k, item))
                    .collect::<Vec<R>>()
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("ip-par worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in &mut chunks {
        out.append(chunk);
    }
    out
}

/// Runs `f(i)` for each index in `0..len` for its side effects, partitioned
/// across threads. `f` must only touch state disjoint per index (e.g. via
/// interior slices handed out by the caller); this crate's other combinators
/// are usually the better fit.
pub fn par_for<F>(len: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    par_for_with(num_threads(), len, f)
}

/// [`par_for`] with an explicit thread count.
pub fn par_for_with<F>(threads: usize, len: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if threads <= 1 || len < 2 {
        for i in 0..len {
            f(i);
        }
        return;
    }
    let ranges = partition(len, threads);
    std::thread::scope(|scope| {
        for r in ranges {
            let f = &f;
            scope.spawn(move || {
                for i in r {
                    f(i);
                }
            });
        }
    });
}

/// Splits `data` into contiguous chunks of `chunk_len` elements (last one
/// possibly shorter) and runs `f(chunk_index, chunk)` on each, in parallel.
/// The chunk partitioning — and therefore which elements each invocation
/// sees — is independent of the thread count.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_with(num_threads(), data, chunk_len, f)
}

/// [`par_chunks_mut`] with an explicit thread count.
pub fn par_chunks_mut_with<T, F>(threads: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if threads <= 1 || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
    let ranges = partition(chunks.len(), threads);
    let mut chunks = chunks;
    std::thread::scope(|scope| {
        // Peel off each thread's set of chunks from the back so ownership
        // moves into the worker without unsafe splitting.
        let mut rest = chunks.as_mut_slice();
        let mut taken = Vec::with_capacity(ranges.len());
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.len());
            taken.push(head);
            rest = tail;
        }
        for group in taken {
            let f = &f;
            scope.spawn(move || {
                for (i, chunk) in group.iter_mut() {
                    f(*i, chunk);
                }
            });
        }
    });
}

/// Distributes `items` across stateful `workers`, preserving item order in
/// the results.
///
/// Each worker is handed one contiguous range of items (via [`partition`]
/// over `workers.len()`), processes them in order with exclusive access to
/// its own state, and the per-item results come back in item order. Which
/// worker handles which item is a function of the lengths alone — *not* of
/// timing — so a computation whose per-item result depends only on
/// `(worker state, item)` is deterministic as long as all workers start in
/// equivalent states (the data-parallel trainer synchronizes replica
/// parameters before every call).
///
/// With a single worker (or one item) everything runs inline on the caller's
/// stack.
pub fn par_map_workers<W, T, R, F>(workers: &mut [W], items: &[T], f: F) -> Vec<R>
where
    W: Send,
    T: Sync,
    R: Send,
    F: Fn(&mut W, &T) -> R + Sync,
{
    assert!(!workers.is_empty(), "par_map_workers: no workers");
    if workers.len() == 1 || items.len() <= 1 {
        let w = &mut workers[0];
        return items.iter().map(|it| f(w, it)).collect();
    }
    let ranges = partition(items.len(), workers.len());
    let mut chunks: Vec<Vec<R>> = std::thread::scope(|scope| {
        let mut rest = workers;
        let mut handles = Vec::with_capacity(ranges.len());
        for r in &ranges {
            let (w, tail) = rest.split_first_mut().expect("more ranges than workers");
            rest = tail;
            let slice = &items[r.clone()];
            let f = &f;
            handles.push(scope.spawn(move || slice.iter().map(|it| f(w, it)).collect::<Vec<R>>()));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("ip-par worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in &mut chunks {
        out.append(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly() {
        for len in [0usize, 1, 2, 7, 8, 100] {
            for threads in [1usize, 2, 3, 8, 200] {
                let ranges = partition(len, threads);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn par_map_matches_serial_any_thread_count() {
        let items: Vec<i64> = (0..103).collect();
        let serial: Vec<i64> = items.iter().map(|x| x * x - 3).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            assert_eq!(par_map_with(threads, &items, |x| x * x - 3), serial);
        }
    }

    #[test]
    fn par_map_float_sums_bit_identical() {
        // Per-element op order is what matters for float bit-identity.
        let items: Vec<f64> = (0..97).map(|i| (i as f64).sin()).collect();
        let f = |x: &f64| (0..50).fold(*x, |acc, k| acc + (k as f64).sqrt() * acc.cos());
        let serial: Vec<f64> = items.iter().map(f).collect();
        for threads in [2, 5, 16] {
            let par = par_map_with(threads, &items, f);
            assert!(serial
                .iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn par_for_touches_every_index_once() {
        use std::sync::Mutex;
        let hits = Mutex::new(vec![0u32; 57]);
        par_for_with(4, 57, |i| hits.lock().unwrap()[i] += 1);
        assert!(hits.into_inner().unwrap().iter().all(|&h| h == 1));
    }

    #[test]
    fn par_chunks_mut_partitioning_is_thread_count_independent() {
        let make = |threads| {
            let mut data = vec![0usize; 23];
            par_chunks_mut_with(threads, &mut data, 5, |ci, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = ci * 100 + k;
                }
            });
            data
        };
        let serial = make(1);
        for threads in [2, 3, 8] {
            assert_eq!(make(threads), serial);
        }
        // Chunk 4 is the short tail (3 elements).
        assert_eq!(serial[20..], [400, 401, 402]);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn par_map_mut_matches_serial_any_thread_count() {
        let serial = {
            let mut items: Vec<i64> = (0..57).collect();
            let out = par_map_mut_with(1, &mut items, |i, x| {
                *x += i as i64;
                *x * 2
            });
            (items, out)
        };
        for threads in [2, 3, 4, 8, 64] {
            let mut items: Vec<i64> = (0..57).collect();
            let out = par_map_mut_with(threads, &mut items, |i, x| {
                *x += i as i64;
                *x * 2
            });
            assert_eq!((items, out), serial, "threads {threads}");
        }
    }

    #[test]
    fn par_map_mut_indices_are_global() {
        let mut items = vec![0usize; 23];
        par_map_mut_with(4, &mut items, |i, x| *x = i);
        assert_eq!(items, (0..23).collect::<Vec<_>>());
    }

    /// The overhead-at-parity fix: with one thread or one item, no worker
    /// machinery may exist — every invocation must run on the caller's own
    /// thread.
    #[test]
    fn single_thread_and_small_batches_run_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let on_caller = |tag: &str, ids: Vec<std::thread::ThreadId>| {
            assert!(
                ids.iter().all(|&id| id == caller),
                "{tag}: work left the caller thread"
            );
        };

        // threads == 1, many items.
        let items: Vec<u32> = (0..16).collect();
        on_caller(
            "par_map threads=1",
            par_map_with(1, &items, |_| std::thread::current().id()),
        );
        // Many threads, one item.
        on_caller(
            "par_map one item",
            par_map_with(8, &items[..1], |_| std::thread::current().id()),
        );
        let mut one = [0u8];
        on_caller(
            "par_map_mut one item",
            par_map_mut_with(8, &mut one, |_, _| std::thread::current().id()),
        );
        let mut many = [0u8; 16];
        on_caller(
            "par_map_mut threads=1",
            par_map_mut_with(1, &mut many, |_, _| std::thread::current().id()),
        );
        // par_for: record the executing thread per index.
        use std::sync::Mutex;
        let ids = Mutex::new(Vec::new());
        par_for_with(1, 9, |_| {
            ids.lock().unwrap().push(std::thread::current().id())
        });
        on_caller("par_for threads=1", ids.into_inner().unwrap());
    }

    #[test]
    fn par_map_workers_preserves_item_order() {
        let items: Vec<i64> = (0..29).collect();
        for n_workers in [1usize, 2, 3, 7] {
            let mut workers: Vec<u64> = vec![0; n_workers];
            let out = par_map_workers(&mut workers, &items, |_w, &x| x * 10);
            assert_eq!(out, items.iter().map(|x| x * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_workers_gives_each_worker_a_contiguous_run() {
        let items: Vec<usize> = (0..10).collect();
        let mut workers: Vec<Vec<usize>> = vec![Vec::new(); 3];
        par_map_workers(&mut workers, &items, |w, &i| w.push(i));
        // partition(10, 3) → 4 + 3 + 3.
        assert_eq!(workers[0], [0, 1, 2, 3]);
        assert_eq!(workers[1], [4, 5, 6]);
        assert_eq!(workers[2], [7, 8, 9]);
    }

    #[test]
    fn par_map_workers_single_worker_runs_inline() {
        let mut workers = [0u32];
        let out = par_map_workers(&mut workers, &[1, 2, 3], |w, &x| {
            *w += 1;
            x + 1
        });
        assert_eq!(out, [2, 3, 4]);
        assert_eq!(workers[0], 3);
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert_eq!(par_map_with(4, &[] as &[i32], |x| *x), Vec::<i32>::new());
        par_for_with(4, 0, |_| unreachable!());
        par_chunks_mut_with(4, &mut [] as &mut [i32], 3, |_, _| unreachable!());
    }
}
