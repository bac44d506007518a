//! Typed entity identifiers and dense arenas for expanded fabrics.
//!
//! The topology compiler ([`crate::expand`]) produces graphs with four
//! kinds of entities — stages, switches, ports and hosts — each
//! numbered densely from zero (a port as `switch * radix + local`, with
//! no table of its own: its far end is a closed form of the id). Raw `usize` indices invite cross-kind
//! mix-ups (a port index silently used as a switch index); the newtypes
//! here make every table lookup kind-checked at compile time while
//! keeping the underlying representation a plain `u32`, small enough
//! that a 32K-port fabric's tables stay a few megabytes.
//!
//! [`EntityVec`] is the matching arena: a `Vec<V>` that can only be
//! indexed by its own key type, in the style of compiler IR id/arena
//! pairs.

use core::fmt;
use core::marker::PhantomData;

/// A dense `u32`-backed entity identifier.
///
/// Implemented by the id newtypes generated with [`entity_id!`]; used as
/// the key bound of [`EntityVec`].
pub trait EntityId: Copy + Ord {
    /// Construct the id with position `idx` in its arena.
    fn from_index(idx: usize) -> Self;
    /// The position of this id in its arena.
    fn index(self) -> usize;
}

/// Defines a `u32`-backed entity id newtype implementing [`EntityId`].
macro_rules! entity_id {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// The id with raw value `raw`.
            pub const fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// The raw `u32` value.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl EntityId for $name {
            fn from_index(idx: usize) -> Self {
                debug_assert!(idx <= u32::MAX as usize);
                $name(idx as u32)
            }

            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

entity_id!(
    /// A stage (level) of an expanded fabric: leaves are stage 0.
    StageId,
    "stage"
);
entity_id!(
    /// A switch of an expanded fabric, numbered stage-major.
    SwitchId,
    "sw"
);
entity_id!(
    /// A switch port: `switch.index() * radix + local`.
    PortId,
    "port"
);
entity_id!(
    /// An end host attached to a leaf-facing port.
    HostId,
    "host"
);

/// A dense arena indexable only by its key type `K`.
///
/// Pushing returns the id of the new slot; iteration yields `(id, &value)`
/// pairs in id order, so every walk over an arena is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityVec<K: EntityId, V> {
    items: Vec<V>,
    _key: PhantomData<K>,
}

impl<K: EntityId, V> EntityVec<K, V> {
    /// An empty arena.
    pub fn new() -> Self {
        EntityVec {
            items: Vec::new(),
            _key: PhantomData,
        }
    }

    /// An empty arena with room for `cap` entities.
    pub fn with_capacity(cap: usize) -> Self {
        EntityVec {
            items: Vec::with_capacity(cap),
            _key: PhantomData,
        }
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the arena holds no entities.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Append `value`, returning its id.
    pub fn push(&mut self, value: V) -> K {
        let id = K::from_index(self.items.len());
        self.items.push(value);
        id
    }

    /// The value for `id`, or `None` when out of range.
    pub fn get(&self, id: K) -> Option<&V> {
        self.items.get(id.index())
    }

    /// The id that the next [`EntityVec::push`] will return.
    pub fn next_id(&self) -> K {
        K::from_index(self.items.len())
    }

    /// Iterate `(id, &value)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, v)| (K::from_index(i), v))
    }

    /// Iterate the ids in order.
    pub fn ids(&self) -> impl Iterator<Item = K> + use<K, V> {
        (0..self.items.len()).map(K::from_index)
    }

    /// Iterate the values in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.items.iter()
    }
}

impl<K: EntityId, V> Default for EntityVec<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityId, V> Extend<V> for EntityVec<K, V> {
    /// Append every value in order, as repeated [`EntityVec::push`].
    fn extend<I: IntoIterator<Item = V>>(&mut self, values: I) {
        self.items.extend(values);
    }
}

impl<K: EntityId, V> core::ops::Index<K> for EntityVec<K, V> {
    type Output = V;

    fn index(&self, id: K) -> &V {
        &self.items[id.index()]
    }
}

impl<K: EntityId, V> core::ops::IndexMut<K> for EntityVec<K, V> {
    fn index_mut(&mut self, id: K) -> &mut V {
        &mut self.items[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_format() {
        let s = SwitchId::from_index(17);
        assert_eq!(s.index(), 17);
        assert_eq!(s.raw(), 17);
        assert_eq!(format!("{s}"), "sw17");
        assert_eq!(format!("{:?}", PortId::new(3)), "port3");
    }

    #[test]
    fn entity_vec_push_and_index() {
        let mut v: EntityVec<HostId, u64> = EntityVec::new();
        assert!(v.is_empty());
        let a = v.push(10);
        let b = v.push(20);
        assert_eq!(v.len(), 2);
        assert_eq!(v[a], 10);
        assert_eq!(v[b], 20);
        v[b] = 21;
        assert_eq!(v[b], 21);
        assert_eq!(v.get(HostId::new(9)), None);
        assert_eq!(v.next_id(), HostId::new(2));
    }

    #[test]
    fn entity_vec_iteration_is_in_id_order() {
        let mut v: EntityVec<StageId, char> = EntityVec::with_capacity(3);
        for c in ['a', 'b', 'c'] {
            v.push(c);
        }
        let pairs: Vec<_> = v.iter().map(|(k, &c)| (k.index(), c)).collect();
        assert_eq!(pairs, vec![(0, 'a'), (1, 'b'), (2, 'c')]);
        let ids: Vec<_> = v.ids().map(|k| k.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(v.values().count(), 3);
    }

    #[test]
    fn different_id_kinds_do_not_compare() {
        // Compile-time property: EntityVec<SwitchId, _> cannot be indexed
        // by a PortId. Checked here only by constructing both kinds.
        let s = SwitchId::new(1);
        let p = PortId::new(1);
        assert_eq!(s.raw(), p.raw());
    }
}
