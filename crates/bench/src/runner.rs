//! Deterministic parallel execution of experiment grids.
//!
//! Every figure's work decomposes into independent *cells* — one
//! `(figure, scheduler, workload, seed)` simulation each. A figure first
//! builds its full cell list (closures over pre-generated clusters and job
//! lists), hands it to [`run_cells`], and only then formats the results.
//! [`run_cells`] executes the cells across scoped worker threads pulling
//! from a shared atomic work index, but returns the results **in
//! cell-index order**, so the figure's console output and JSON records are
//! byte-identical to a sequential run regardless of thread count or
//! scheduling interleaving.
//!
//! The worker count comes from `TETRIUM_THREADS` (default: the number of
//! available cores). Set `TETRIUM_TRACE_CELLS=1` to log cell completions
//! to stderr (stderr only — stdout is part of the determinism contract,
//! see DESIGN.md).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Descriptor of one independent unit of experiment work.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Figure/table id the cell belongs to (e.g. `"fig8"`).
    pub figure: &'static str,
    /// Scheduler or variant label (e.g. `"tetrium+fs"`).
    pub scheduler: String,
    /// Workload label (e.g. `"trace-50"`, `"TPC-DS/8-site"`).
    pub workload: String,
    /// Engine/workload seed the cell runs under.
    pub seed: u64,
}

impl Cell {
    /// Creates a cell descriptor.
    pub fn new(
        figure: &'static str,
        scheduler: impl Into<String>,
        workload: impl Into<String>,
        seed: u64,
    ) -> Self {
        Self {
            figure,
            scheduler: scheduler.into(),
            workload: workload.into(),
            seed,
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{} seed={}",
            self.figure, self.scheduler, self.workload, self.seed
        )
    }
}

/// A cell's work: runs once, off the main thread, borrowing figure-local
/// data (clusters, job lists) for the duration of [`run_cells`].
pub type CellFn<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Pairs a descriptor with its work closure (saves the `Box::new` noise at
/// call sites).
pub fn cell<'a, T, F>(desc: Cell, f: F) -> (Cell, CellFn<'a, T>)
where
    F: FnOnce() -> T + Send + 'a,
{
    (desc, Box::new(f))
}

/// Worker-thread count: `TETRIUM_THREADS` if set (minimum 1), otherwise the
/// number of available cores.
pub fn thread_count() -> usize {
    match std::env::var("TETRIUM_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

fn trace_cells() -> bool {
    std::env::var_os("TETRIUM_TRACE_CELLS").is_some()
}

/// Runs the cells on [`thread_count`] workers and returns results in
/// cell-index order.
pub fn run_cells<T: Send>(cells: Vec<(Cell, CellFn<'_, T>)>) -> Vec<T> {
    run_cells_with(thread_count(), cells)
}

/// [`run_cells`] with an explicit worker count. `threads == 1` runs the
/// cells inline on the calling thread (used by timing figures, where
/// concurrent cells would contend with the quantity being measured).
pub fn run_cells_with<T: Send>(threads: usize, cells: Vec<(Cell, CellFn<'_, T>)>) -> Vec<T> {
    let n = cells.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return cells
            .into_iter()
            .map(|(desc, f)| {
                let out = f();
                if trace_cells() {
                    eprintln!("[runner] done {desc}");
                }
                out
            })
            .collect();
    }

    // Each worker claims the next unclaimed cell index, takes ownership of
    // that cell's closure, and deposits the result in the cell's slot.
    // Ordering lives entirely in the slot index, so the output is
    // independent of which worker ran what.
    let (descs, fns): (Vec<Cell>, Vec<CellFn<'_, T>>) = cells.into_iter().unzip();
    let work: Vec<Mutex<Option<CellFn<'_, T>>>> =
        fns.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let f = work[i]
                        .lock()
                        .expect("cell mutex poisoned")
                        .take()
                        .expect("cell claimed twice");
                    let out = f();
                    if trace_cells() {
                        eprintln!("[runner] done {}", descs[i]);
                    }
                    *slots[i].lock().expect("slot mutex poisoned") = Some(out);
                })
            })
            .collect();
        // Join every worker, then re-raise the first cell panic with its
        // original payload (an unjoined panicking worker would only surface
        // as the scope's generic panic message).
        let mut first_panic = None;
        for w in workers {
            if let Err(payload) = w.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex poisoned")
                .expect("all cells completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<(Cell, CellFn<'static, usize>)> {
        (0..n)
            .map(|i| {
                cell(
                    Cell::new("test", format!("s{i}"), "w", i as u64),
                    move || i * i,
                )
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_cell_index_order() {
        for threads in [1, 2, 4, 16] {
            let out = run_cells_with(threads, grid(23));
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<usize> = run_cells_with(4, Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn cells_borrow_caller_data() {
        let base = [10usize, 20, 30];
        let cells: Vec<(Cell, CellFn<'_, usize>)> = base
            .iter()
            .enumerate()
            .map(|(i, v)| cell(Cell::new("test", "borrow", "w", i as u64), move || v + 1))
            .collect();
        assert_eq!(run_cells_with(2, cells), vec![11, 21, 31]);
    }

    #[test]
    fn worker_panics_propagate() {
        let cells: Vec<(Cell, CellFn<'static, ()>)> = vec![
            cell(Cell::new("test", "ok", "w", 0), || ()),
            cell(Cell::new("test", "boom", "w", 1), || panic!("cell failed")),
        ];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cells_with(2, cells);
        }));
        let payload = r.expect_err("a cell panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"cell failed"));
    }
}
