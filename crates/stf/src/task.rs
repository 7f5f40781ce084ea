//! Task descriptors: the metadata a runtime needs about one task.
//!
//! A task is a pure function over runtime-managed data objects; for
//! synchronization purposes the only thing that matters is *which* data it
//! touches and *how* ([`Access`]). The actual computation is supplied
//! separately (as a kernel closure) so the same recorded flow can be run
//! with real kernels, synthetic kernels, or no kernels at all (model
//! checking).

use std::hash::{Hash, Hasher};
use std::ops::Deref;

use crate::access::AccessMode;
use crate::ids::{DataId, TaskId};

/// One declared access of a task: a data object plus its access mode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Access {
    /// The data object accessed.
    pub data: DataId,
    /// How it is accessed.
    pub mode: AccessMode,
}

impl Access {
    /// Convenience constructor.
    #[inline]
    pub fn new(data: DataId, mode: AccessMode) -> Access {
        Access { data, mode }
    }

    /// Read access to `data`.
    #[inline]
    pub fn read(data: DataId) -> Access {
        Access::new(data, AccessMode::Read)
    }

    /// Write access to `data`.
    #[inline]
    pub fn write(data: DataId) -> Access {
        Access::new(data, AccessMode::Write)
    }

    /// Read-write access to `data`.
    #[inline]
    pub fn read_write(data: DataId) -> Access {
        Access::new(data, AccessMode::ReadWrite)
    }
}

/// Accesses a task keeps inside its descriptor before it spills them.
const INLINE: usize = 3;

/// A task's declared accesses, held in place.
///
/// Up to three accesses live inside the value itself; a longer list
/// spills to one boxed slice. So a flow whose tasks declare at most three
/// accesses costs one allocation, the task vector, not one per task. It
/// derefs to `[Access]`; equality, hashing and `Debug` see the live
/// accesses only, never an unused inline slot.
#[derive(Clone)]
pub struct Accesses(Repr);

// `u8`: both variants keep `len` at one offset, so reading it takes no
// branch on the variant.
#[derive(Clone)]
#[repr(u8)]
enum Repr {
    Inline { len: u32, buf: [Access; INLINE] },
    Spilled { len: u32, list: Box<[Access]> },
}

impl From<&[Access]> for Accesses {
    fn from(list: &[Access]) -> Accesses {
        let len = u32::try_from(list.len()).expect("at most one access per object");
        if list.len() > INLINE {
            return Accesses(Repr::Spilled {
                len,
                list: list.into(),
            });
        }
        // An unused slot holds any access: only `..len` is ever read.
        let mut buf = [Access::read(DataId(0)); INLINE];
        buf[..list.len()].copy_from_slice(list);
        Accesses(Repr::Inline { len, buf })
    }
}

impl From<Vec<Access>> for Accesses {
    fn from(list: Vec<Access>) -> Accesses {
        list.as_slice().into()
    }
}

impl Deref for Accesses {
    type Target = [Access];

    #[inline]
    fn deref(&self) -> &[Access] {
        match &self.0 {
            Repr::Inline { len, buf } => buf.get(..*len as usize).unwrap_or(&[]),
            Repr::Spilled { list, .. } => list,
        }
    }
}

impl Accesses {
    /// Number of accesses, read without forming the slice.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } | Repr::Spilled { len, .. } => *len as usize,
        }
    }

    /// Does the task declare no access?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> IntoIterator for &'a Accesses {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Accesses {
    fn eq(&self, other: &Accesses) -> bool {
        **self == **other
    }
}

impl Eq for Accesses {}

impl Hash for Accesses {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl std::fmt::Debug for Accesses {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Metadata of one task in a recorded flow.
///
/// `TaskDesc` deliberately contains *no* executable payload: recorded graphs
/// are pure dependency structures, reusable across runtimes, kernels and the
/// model checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskDesc {
    /// Position in the task flow (1-based, dense).
    pub id: TaskId,
    /// Declared accesses, at most one per data object.
    pub accesses: Accesses,
    /// Cost hint in abstract "work units" (e.g. loop iterations of the
    /// synthetic kernel). Zero means "unknown"; schedulers may use it, the
    /// decentralized runtime ignores it.
    pub cost: u64,
    /// Optional human-readable kind tag (e.g. `"getrf"`, `"gemm"`), used by
    /// reports and tests. Not interpreted by runtimes.
    pub kind: &'static str,
}

// Three inline accesses fit beside the id, cost and kind in 64 bytes; a
// fourth would grow every descriptor to 72.
const _: () = assert!(std::mem::size_of::<TaskDesc>() == 64);

impl TaskDesc {
    /// Iterates over the data objects this task *writes* (exclusively).
    pub fn writes(&self) -> impl Iterator<Item = DataId> + '_ {
        self.accesses
            .iter()
            .filter(|a| a.mode.writes())
            .map(|a| a.data)
    }

    /// Iterates over the data objects this task *reads* (shared).
    pub fn reads(&self) -> impl Iterator<Item = DataId> + '_ {
        self.accesses
            .iter()
            .filter(|a| a.mode.reads())
            .map(|a| a.data)
    }

    /// Returns the declared mode on `data`, if any.
    pub fn mode_on(&self, data: DataId) -> Option<AccessMode> {
        self.accesses
            .iter()
            .find(|a| a.data == data)
            .map(|a| a.mode)
    }

    /// Do this task and `other` conflict on at least one data object?
    ///
    /// Two tasks conflict when they access a common data object and at least
    /// one of the two accesses writes. Conflicting tasks must be ordered by
    /// any sequentially-consistent execution.
    pub fn conflicts_with(&self, other: &TaskDesc) -> bool {
        self.accesses.iter().any(|a| {
            other
                .mode_on(a.data)
                .is_some_and(|m| a.mode.conflicts_with(m))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMode::*;
    use std::hash::BuildHasher;

    fn task(id: u64, accesses: Vec<Access>) -> TaskDesc {
        TaskDesc {
            id: TaskId(id),
            accesses: accesses.into(),
            cost: 0,
            kind: "test",
        }
    }

    #[test]
    fn access_constructors() {
        assert_eq!(Access::read(DataId(1)).mode, Read);
        assert_eq!(Access::write(DataId(1)).mode, Write);
        assert_eq!(Access::read_write(DataId(1)).mode, ReadWrite);
    }

    #[test]
    fn reads_and_writes_iterators() {
        let t = task(
            1,
            vec![
                Access::read(DataId(0)),
                Access::write(DataId(1)),
                Access::read_write(DataId(2)),
            ],
        );
        let reads: Vec<_> = t.reads().collect();
        let writes: Vec<_> = t.writes().collect();
        assert_eq!(reads, vec![DataId(0), DataId(2)]);
        assert_eq!(writes, vec![DataId(1), DataId(2)]);
    }

    #[test]
    fn mode_on_lookup() {
        let t = task(1, vec![Access::read(DataId(3))]);
        assert_eq!(t.mode_on(DataId(3)), Some(Read));
        assert_eq!(t.mode_on(DataId(4)), None);
    }

    #[test]
    fn conflict_requires_shared_data_and_a_writer() {
        let r0 = task(1, vec![Access::read(DataId(0))]);
        let r0b = task(2, vec![Access::read(DataId(0))]);
        let w0 = task(3, vec![Access::write(DataId(0))]);
        let w1 = task(4, vec![Access::write(DataId(1))]);

        assert!(!r0.conflicts_with(&r0b), "read/read never conflicts");
        assert!(r0.conflicts_with(&w0), "read/write on same data conflicts");
        assert!(w0.conflicts_with(&r0), "conflict is symmetric");
        assert!(!w0.conflicts_with(&w1), "disjoint data never conflicts");
    }

    #[test]
    fn accesses_compare_hash_and_print_their_live_prefix_only() {
        let (r, w) = (Access::read(DataId(1)), Access::write(DataId(2)));
        let live = Accesses::from(&[r][..]);
        let stale = Accesses(Repr::Inline {
            len: 1,
            buf: [r, w, w],
        });
        let spilled = Accesses(Repr::Spilled {
            len: 1,
            list: vec![r].into(),
        });
        for other in [&stale, &spilled] {
            assert_eq!(&live, other);
            assert_eq!(format!("{live:?}"), format!("{other:?}"));
        }
        let state = std::collections::hash_map::RandomState::new();
        assert_eq!(state.hash_one(&live), state.hash_one(&stale));
        assert_eq!(state.hash_one(&live), state.hash_one(&spilled));
        assert_eq!(format!("{live:?}"), format!("{:?}", [r]));
        assert_ne!(live, Accesses::from(&[r, w][..]));
        let four = Accesses::from(vec![r, w, r, w]);
        assert!(matches!(four.0, Repr::Spilled { .. }));
        assert_eq!((four.len(), &four[3]), (4, &w));
    }

    #[test]
    fn empty_access_task_conflicts_with_nothing() {
        let none = task(1, vec![]);
        let w0 = task(2, vec![Access::write(DataId(0))]);
        assert!(!none.conflicts_with(&w0));
        assert!(!w0.conflicts_with(&none));
    }
}
