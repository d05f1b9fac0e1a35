//! Memory instrumentation: tracks live container allocations and the peak
//! footprint of an execution.
//!
//! The paper's Fig. 13 compares the measured peak memory of different
//! store/recompute configurations against the user-set limit; this tracker is
//! what produces those measurements in the reproduction.  Byte counts use the
//! declared element type of each container (so a float32 container counts 4
//! bytes per element even though the interpreter stores f64 values), matching
//! the analytic model used by the ILP formulation.

use std::collections::BTreeMap;

/// Tracks allocations and deallocations of named containers.
#[derive(Clone, Debug, Default)]
pub struct MemoryTracker {
    live: BTreeMap<String, usize>,
    current_bytes: usize,
    peak_bytes: usize,
    /// Total number of allocation events.
    pub allocations: usize,
    /// Total number of deallocation events.
    pub deallocations: usize,
}

impl MemoryTracker {
    /// Create an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the allocation of a container. Re-allocating an already live
    /// container first frees the old size.
    pub fn alloc(&mut self, name: &str, bytes: usize) {
        if let Some(old) = self.live.insert(name.to_string(), bytes) {
            self.current_bytes = self.current_bytes.saturating_sub(old);
        }
        self.current_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
        self.allocations += 1;
    }

    /// Record the deallocation of a container (no-op if it is not live).
    pub fn free(&mut self, name: &str) {
        if let Some(bytes) = self.live.remove(name) {
            self.current_bytes = self.current_bytes.saturating_sub(bytes);
            self.deallocations += 1;
        }
    }

    /// Whether the container is currently live.
    pub fn is_live(&self, name: &str) -> bool {
        self.live.contains_key(name)
    }

    /// Bytes currently allocated.
    pub fn current_bytes(&self) -> usize {
        self.current_bytes
    }

    /// Peak bytes observed so far.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = MemoryTracker::new();
        m.alloc("A", 100);
        m.alloc("B", 200);
        assert_eq!(m.current_bytes(), 300);
        assert_eq!(m.peak_bytes(), 300);
        m.free("A");
        assert_eq!(m.current_bytes(), 200);
        assert_eq!(m.peak_bytes(), 300);
        m.alloc("C", 50);
        assert_eq!(m.peak_bytes(), 300);
        m.alloc("D", 100);
        assert_eq!(m.peak_bytes(), 350);
    }

    #[test]
    fn realloc_replaces_size() {
        let mut m = MemoryTracker::new();
        m.alloc("A", 100);
        m.alloc("A", 40);
        assert_eq!(m.current_bytes(), 40);
        assert!(m.is_live("A"));
    }

    #[test]
    fn free_unknown_is_noop() {
        let mut m = MemoryTracker::new();
        m.free("missing");
        assert_eq!(m.current_bytes(), 0);
        assert_eq!(m.deallocations, 0);
    }
}
