//! The kernel calling convention.
//!
//! OP2 kernels are small "user functions" applied once per set element,
//! receiving pointers to each argument's data for that element (gathered
//! through the maps by the back-end). Here a kernel is a plain function
//! pointer taking an [`Args`] view; per-component accessors (`get` / `set`
//! / `inc`) replace raw pointer arithmetic.
//!
//! Accessors are *value-based* rather than handing out `&mut [f64]`
//! because two arguments of one iteration may legally alias (e.g. an edge
//! whose two map entries resolve to the same node); value-based access
//! through raw pointers is sound under aliasing, while two live `&mut`
//! would not be. Mode misuse (writing through a `Read` argument, reading
//! an `Inc` one, …) is caught by debug assertions, mirroring how OP2
//! relies on the access descriptors being truthful.

use crate::access::AccessMode;

/// A user kernel: one invocation per set element.
pub type KernelFn = fn(&Args<'_>);

/// Resolved location of one argument for the current iteration.
#[derive(Debug, Clone, Copy)]
pub struct ArgSlot {
    /// First component of this argument's data for the current element.
    pub ptr: *mut f64,
    /// Number of components.
    pub dim: u32,
    /// Declared access mode (checked in debug builds).
    pub mode: AccessMode,
}

/// View of all arguments for one iteration, passed to the kernel.
pub struct Args<'a> {
    slots: &'a [ArgSlot],
}

impl<'a> Args<'a> {
    /// Build a view over resolved slots. Called by executors only.
    ///
    /// # Safety contract (enforced by executors, not the type system)
    /// Every slot pointer must be valid for reads and (if the mode
    /// modifies) writes of `dim` consecutive `f64`s for the lifetime of the
    /// kernel invocation, and no other thread may access that memory
    /// concurrently.
    #[inline]
    pub fn new(slots: &'a [ArgSlot]) -> Self {
        Args { slots }
    }

    /// Number of arguments.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the loop has no arguments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Dimension (component count) of argument `arg`.
    #[inline]
    pub fn dim(&self, arg: usize) -> usize {
        self.slots[arg].dim as usize
    }

    #[inline]
    fn slot(&self, arg: usize, comp: usize) -> &ArgSlot {
        let s = &self.slots[arg];
        debug_assert!(
            comp < s.dim as usize,
            "component {comp} out of range for argument {arg} (dim {})",
            s.dim
        );
        s
    }

    /// Read component `comp` of argument `arg`. Valid for `Read` and `Rw`
    /// arguments only: an `Inc` argument's prior value is not the
    /// kernel's to see (OP2's contract — the owner-compute executor
    /// redirects masked-off increments to a sink slot, which relies on
    /// it).
    #[inline]
    pub fn get(&self, arg: usize, comp: usize) -> f64 {
        let s = self.slot(arg, comp);
        debug_assert!(
            readable(s.mode),
            "argument {arg} has mode {:?} and may not be read",
            s.mode
        );
        // SAFETY: executor guarantees validity; see `Args::new`.
        unsafe { *s.ptr.add(comp) }
    }

    /// Overwrite component `comp` of argument `arg`. Valid for `Write` and
    /// `Rw` arguments.
    #[inline]
    pub fn set(&self, arg: usize, comp: usize, v: f64) {
        let s = self.slot(arg, comp);
        debug_assert!(
            matches!(s.mode, AccessMode::Write | AccessMode::Rw),
            "argument {arg} has mode {:?} and may not be overwritten",
            s.mode
        );
        // SAFETY: executor guarantees validity; see `Args::new`.
        unsafe { *s.ptr.add(comp) = v }
    }

    /// Increment component `comp` of argument `arg`. Valid for `Inc`
    /// arguments only.
    #[inline]
    pub fn inc(&self, arg: usize, comp: usize, v: f64) {
        let s = self.slot(arg, comp);
        debug_assert!(
            s.mode == AccessMode::Inc,
            "argument {arg} has mode {:?} and may not be incremented",
            s.mode
        );
        // SAFETY: executor guarantees validity; see `Args::new`.
        unsafe { *s.ptr.add(comp) += v }
    }

    /// Combine component `comp` of argument `arg` with `v` by minimum.
    /// Valid for `Inc`-mode (reduction) arguments.
    #[inline]
    pub fn reduce_min(&self, arg: usize, comp: usize, v: f64) {
        let s = self.slot(arg, comp);
        debug_assert!(s.mode == AccessMode::Inc);
        // SAFETY: executor guarantees validity; see `Args::new`.
        unsafe {
            let cur = *s.ptr.add(comp);
            *s.ptr.add(comp) = cur.min(v);
        }
    }

    /// Combine component `comp` of argument `arg` with `v` by maximum.
    /// Valid for `Inc`-mode (reduction) arguments.
    #[inline]
    pub fn reduce_max(&self, arg: usize, comp: usize, v: f64) {
        let s = self.slot(arg, comp);
        debug_assert!(s.mode == AccessMode::Inc);
        // SAFETY: executor guarantees validity; see `Args::new`.
        unsafe {
            let cur = *s.ptr.add(comp);
            *s.ptr.add(comp) = cur.max(v);
        }
    }

    /// Copy all components of argument `arg` into `out` (a gather helper
    /// for kernels that want a local array). Valid for `Read` and `Rw`
    /// arguments only, like [`Args::get`].
    #[inline]
    pub fn load(&self, arg: usize, out: &mut [f64]) {
        let s = &self.slots[arg];
        debug_assert!(
            readable(s.mode),
            "argument {arg} has mode {:?} and may not be read",
            s.mode
        );
        debug_assert!(out.len() <= s.dim as usize);
        for (c, o) in out.iter_mut().enumerate() {
            // SAFETY: executor guarantees validity; see `Args::new`.
            *o = unsafe { *s.ptr.add(c) };
        }
    }
}

/// Whether a kernel may read an argument of this mode: `Read` and `Rw`.
#[inline]
fn readable(mode: AccessMode) -> bool {
    matches!(mode, AccessMode::Read | AccessMode::Rw)
}

#[cfg(test)]
#[allow(dropping_references, clippy::drop_non_drop)]
mod tests {
    use super::*;

    #[test]
    fn get_set_inc_roundtrip() {
        let mut a = [1.0, 2.0];
        let mut b = [10.0];
        let slots = [
            ArgSlot {
                ptr: a.as_mut_ptr(),
                dim: 2,
                mode: AccessMode::Rw,
            },
            ArgSlot {
                ptr: b.as_mut_ptr(),
                dim: 1,
                mode: AccessMode::Inc,
            },
        ];
        let args = Args::new(&slots);
        assert_eq!(args.len(), 2);
        assert_eq!(args.dim(0), 2);
        assert_eq!(args.get(0, 1), 2.0);
        args.set(0, 0, 5.0);
        args.inc(1, 0, 2.5);
        drop(args);
        assert_eq!(a, [5.0, 2.0]);
        assert_eq!(b, [12.5]);
    }

    #[test]
    fn aliased_slots_are_sound() {
        // Two arguments resolving to the same element, as happens when an
        // edge's two map entries coincide: increments must both land.
        let mut x = [0.0];
        let slots = [
            ArgSlot {
                ptr: x.as_mut_ptr(),
                dim: 1,
                mode: AccessMode::Inc,
            },
            ArgSlot {
                ptr: x.as_mut_ptr(),
                dim: 1,
                mode: AccessMode::Inc,
            },
        ];
        let args = Args::new(&slots);
        args.inc(0, 0, 1.0);
        args.inc(1, 0, 2.0);
        drop(args);
        assert_eq!(x[0], 3.0);
    }

    /// Reading an `Inc` argument breaks the OP2 contract and trips the
    /// debug assertion, through `get` and `load` alike.
    #[cfg(debug_assertions)]
    #[test]
    fn reading_an_inc_argument_panics() {
        let mut x = [1.0, 2.0];
        let slots = [ArgSlot {
            ptr: x.as_mut_ptr(),
            dim: 2,
            mode: AccessMode::Inc,
        }];
        let args = Args::new(&slots);
        let get = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| args.get(0, 0)));
        assert!(get.is_err(), "get on an Inc argument must panic");
        let load = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = [0.0; 2];
            args.load(0, &mut out);
        }));
        assert!(load.is_err(), "load on an Inc argument must panic");
    }

    #[test]
    fn load_gathers_components() {
        let mut a = [3.0, 4.0, 5.0];
        let slots = [ArgSlot {
            ptr: a.as_mut_ptr(),
            dim: 3,
            mode: AccessMode::Read,
        }];
        let args = Args::new(&slots);
        let mut out = [0.0; 3];
        args.load(0, &mut out);
        assert_eq!(out, [3.0, 4.0, 5.0]);
    }
}
