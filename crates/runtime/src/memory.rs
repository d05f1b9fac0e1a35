//! Memory instrumentation: tracks live container allocations and the peak
//! footprint of an execution.
//!
//! The paper's Fig. 13 compares the measured peak memory of different
//! store/recompute configurations against the user-set limit; this tracker is
//! what produces those measurements in the reproduction (a run reports them
//! as `ExecutionReport::peak_bytes` and `final_bytes`).  Byte counts use the
//! declared element type of each container (so a float32 container counts 4
//! bytes per element even though the interpreter stores f64 values), matching
//! the analytic model used by the ILP formulation.

/// Live bytes per container, indexed by array id, with the running total and
/// its high-water mark.  A session holds one and resets it at every run, so
/// counting allocates nothing.
pub(crate) struct MemoryTracker {
    live: Vec<usize>,
    current_bytes: usize,
    peak_bytes: usize,
}

impl MemoryTracker {
    /// An empty tracker over `arrays` containers.
    pub(crate) fn new(arrays: usize) -> Self {
        MemoryTracker {
            live: vec![0; arrays],
            current_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Forget every allocation and the peak.
    pub(crate) fn reset(&mut self) {
        self.live.fill(0);
        self.current_bytes = 0;
        self.peak_bytes = 0;
    }

    /// Record the allocation of container `id`.  Re-allocating an already
    /// live container first frees the old size.
    pub(crate) fn alloc(&mut self, id: usize, bytes: usize) {
        let old = std::mem::replace(&mut self.live[id], bytes);
        self.current_bytes = self.current_bytes - old + bytes;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
    }

    /// Record the deallocation of container `id` (no-op if it is not live).
    pub(crate) fn free(&mut self, id: usize) {
        self.current_bytes -= std::mem::take(&mut self.live[id]);
    }

    /// Bytes currently allocated.
    pub(crate) fn current_bytes(&self) -> usize {
        self.current_bytes
    }

    /// Peak bytes observed so far.
    pub(crate) fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = MemoryTracker::new(4);
        m.alloc(0, 100);
        m.alloc(1, 200);
        assert_eq!(m.current_bytes(), 300);
        assert_eq!(m.peak_bytes(), 300);
        m.free(0);
        assert_eq!(m.current_bytes(), 200);
        assert_eq!(m.peak_bytes(), 300);
        m.alloc(2, 50);
        assert_eq!(m.peak_bytes(), 300);
        m.alloc(3, 100);
        assert_eq!(m.peak_bytes(), 350);
        m.reset();
        assert_eq!((m.current_bytes(), m.peak_bytes()), (0, 0));
    }

    #[test]
    fn realloc_replaces_size() {
        let mut m = MemoryTracker::new(1);
        m.alloc(0, 100);
        m.alloc(0, 40);
        assert_eq!(m.current_bytes(), 40);
        assert_eq!(m.peak_bytes(), 100);
        m.free(0);
        assert_eq!(m.current_bytes(), 0);
    }

    #[test]
    fn free_unknown_is_noop() {
        let mut m = MemoryTracker::new(2);
        m.alloc(0, 100);
        m.free(1);
        m.free(1);
        assert_eq!(m.current_bytes(), 100);
    }
}
