//! Register arrays: the P4 stateful-processing primitive (§2.1).
//!
//! A P4 `register` is a fixed-size array of cells, persistent across
//! packets, readable and writable from both planes. P4Update stores all
//! per-flow update state in registers indexed by the flow index (Table 1 /
//! Appendix B). This module provides a typed equivalent with the same
//! access discipline: bounds-checked indexed reads and writes plus a
//! read-modify-write helper mirroring P4's atomic register semantics on a
//! single pipeline pass.

/// A fixed-size array of typed register cells.
#[derive(Debug, Clone)]
pub struct RegisterArray<T> {
    name: &'static str,
    cells: Vec<T>,
}

impl<T: Clone + Default> RegisterArray<T> {
    /// Allocate `size` cells initialized to `T::default()`.
    pub fn new(name: &'static str, size: usize) -> Self {
        RegisterArray {
            name,
            cells: vec![T::default(); size],
        }
    }

    /// Grow the array to at least `size` cells, filling with
    /// `T::default()`. Models the control plane re-provisioning register
    /// space when more flows appear than initially sized for.
    pub fn ensure(&mut self, size: usize) {
        if size > self.cells.len() {
            self.cells.resize(size, T::default());
        }
    }
}

impl<T> RegisterArray<T> {
    /// Allocate `size` cells initialized to `init`.
    pub fn filled(name: &'static str, size: usize, init: T) -> Self
    where
        T: Clone,
    {
        RegisterArray {
            name,
            cells: vec![init; size],
        }
    }

    /// Declared name (for diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True for a zero-length array.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read cell `index`.
    ///
    /// # Panics
    /// Panics with the register name on out-of-bounds access — the
    /// equivalent P4 program would read garbage or trap; a panic surfaces
    /// the logic bug instead.
    pub fn read(&self, index: usize) -> &T {
        assert!(
            index < self.cells.len(),
            "register {}[{index}] out of bounds (len {})",
            self.name,
            self.cells.len()
        );
        &self.cells[index]
    }

    /// Write cell `index`.
    pub fn write(&mut self, index: usize, value: T) {
        assert!(
            index < self.cells.len(),
            "register {}[{index}] out of bounds (len {})",
            self.name,
            self.cells.len()
        );
        self.cells[index] = value;
    }

    /// Atomic read-modify-write of one cell; returns the updated value.
    pub fn update<R>(&mut self, index: usize, f: impl FnOnce(&mut T) -> R) -> R {
        assert!(
            index < self.cells.len(),
            "register {}[{index}] out of bounds (len {})",
            self.name,
            self.cells.len()
        );
        f(&mut self.cells[index])
    }

    /// Iterate over all cells (control-plane style bulk read).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.cells.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_initialization() {
        let r: RegisterArray<u32> = RegisterArray::new("d", 4);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(*r.read(3), 0);
        assert_eq!(r.name(), "d");
    }

    #[test]
    fn filled_initialization() {
        let r = RegisterArray::filled("cap", 3, 10.0f64);
        assert!(r.iter().all(|&c| c == 10.0));
    }

    #[test]
    fn write_then_read() {
        let mut r: RegisterArray<u32> = RegisterArray::new("v", 2);
        r.write(1, 42);
        assert_eq!(*r.read(1), 42);
        assert_eq!(*r.read(0), 0);
    }

    #[test]
    fn read_modify_write_returns_result() {
        let mut r: RegisterArray<u32> = RegisterArray::new("ctr", 1);
        let new = r.update(0, |c| {
            *c += 1;
            *c
        });
        assert_eq!(new, 1);
        assert_eq!(*r.read(0), 1);
    }

    #[test]
    #[should_panic(expected = "register v[5] out of bounds")]
    fn out_of_bounds_read_panics() {
        let r: RegisterArray<u8> = RegisterArray::new("v", 2);
        r.read(5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_panics() {
        let mut r: RegisterArray<u8> = RegisterArray::new("v", 2);
        r.write(2, 1);
    }

    #[test]
    fn grow_preserves_and_fills() {
        let mut r: RegisterArray<u32> = RegisterArray::new("g", 2);
        r.write(0, 5);
        r.ensure(4);
        assert_eq!(r.len(), 4);
        assert_eq!(*r.read(0), 5);
        assert_eq!(*r.read(3), 0);
        // Shrinking is a no-op.
        r.ensure(1);
        assert_eq!(r.len(), 4);
    }
}
