//! A persistent ordered map with structural sharing: the container
//! behind every table version the engine publishes.
//!
//! [`PMap`] is a B+tree whose children are `Arc<Node>`. `clone()` is one
//! reference-count bump; every mutation descends with `Arc::make_mut`
//! per node, so a node still shared with an earlier clone gets a shallow
//! copy (entries cloned, child counts bumped) and a uniquely owned node
//! is changed in place. A node is one allocation, keys and values (or
//! children) inline in fixed slots, so a lookup follows one pointer per
//! level and a copy is one `malloc`; the unused slots hold `Default`
//! values, which is why writes ask `K` and `V` for `Default`. A one-key write on a map that shares everything
//! with a published clone therefore copies O(height) nodes, a batch
//! copies each touched node once, and a map nobody else holds (WAL
//! replay, bulk load) copies nothing. Dropping a clone frees only the
//! nodes it did not share.
//!
//! Shape rules (checked by the property tests): every leaf sits at the
//! same depth, keys ascend strictly across leaves, no node is empty
//! except the root of an empty map, and a node holds at most [`MAX`]
//! entries or children. Nodes are *not* kept half full: a removal merges
//! an underfull node into a neighbour when both fit in one node and
//! leaves it alone otherwise, which keeps space O(len) and depth
//! O(log len) without a redistribution path.
//!
//! [`PMap::leaves`] hands out the leaves themselves, held ([`Leaf`]): a
//! held leaf is shared, so no write changes it in place, and one that is
//! [`Leaf::same`] as a leaf held earlier holds the entries it held then.
//! That is what lets a caller keep something it derived from a leaf (the
//! engine keeps each leaf's checkpoint record) until the leaf is written.
//! The map itself keeps nothing of the kind: a cell a shared reference
//! could fill would make every node interior-mutable, and reads and
//! copies of nodes slower for every caller.

use std::array;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Most entries in a leaf and most children of an internal node.
pub(crate) const MAX: usize = 32;
/// A node below this size after a removal tries to merge with a sibling.
const MIN: usize = MAX / 2;
/// Slots per node: one more than it may keep, because an insertion
/// overflows a node first and splits it second.
const SLOTS: usize = MAX + 1;

/// One allocation per node: the first `len` slots are live, the rest hold
/// `Default` values. A leaf maps `keys[i]` to `vals[i]`, keys ascending.
/// An internal node holds, per child, a lower bound of the keys below it:
/// every key below `children[i]` is at least `keys[i]` and less than
/// `keys[i + 1]`. Its first bound is never consulted (any key less than
/// the second bound goes to the first child), so it may be stale.
#[derive(Clone)]
struct Node<K, V> {
    len: usize,
    keys: [K; SLOTS],
    below: Below<K, V>,
}

// The arrays are inline on purpose: boxing the larger one would put the
// second allocation per node back.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Below<K, V> {
    Vals([V; SLOTS]),
    Children([Link<K, V>; SLOTS]),
}

/// A child slot; `None` past the node's `len`.
type Link<K, V> = Option<Arc<Node<K, V>>>;

/// Length of the prefix of `keys` that satisfies `in_prefix`, which holds
/// for a prefix and for nothing after it.
///
/// A binary search reads its keys one after the other, each read waiting
/// for the one before. That is cheapest while the keys of a node share a
/// few cache lines; keys of more than 16 bytes put every probe on a line
/// of its own, and counting, whose reads do not wait on one another and
/// which has no branch to mispredict, is the faster way through a node
/// that is not in the cache.
fn prefix_len<K>(keys: &[K], in_prefix: impl Fn(&K) -> bool) -> usize {
    if size_of::<K>() <= 16 {
        keys.partition_point(in_prefix)
    } else {
        keys.iter().filter(|k| in_prefix(k)).count()
    }
}

/// Where `key` is, or belongs, among the ascending `keys`.
fn rank<K: Ord>(keys: &[K], key: &K) -> usize {
    prefix_len(keys, |k| k < key)
}

/// Index of the child of an internal node whose subtree covers `key`.
fn child_index<K: Ord>(bounds: &[K], key: &K) -> usize {
    prefix_len(bounds.get(1..).unwrap_or_default(), |bound| bound <= key)
}

/// Open slot `at` among the first `len` (of fewer than all) slots by
/// shifting the tail right, and put `item` there.
fn slot_insert<T>(slots: &mut [T], len: usize, at: usize, item: T) {
    if let Some(tail) = slots.get_mut(at..=len) {
        tail.rotate_right(1);
        if let Some(slot) = tail.first_mut() {
            *slot = item;
        }
    }
}

/// Take slot `at` out of the first `len` slots, closing the gap.
fn slot_remove<T: Default>(slots: &mut [T], len: usize, at: usize) -> Option<T> {
    let tail = slots.get_mut(at..len)?;
    tail.rotate_left(1);
    tail.last_mut().map(std::mem::take)
}

/// Move the live slots `from[start..end]` to `to[at..]`.
fn slot_move<T: Default>(from: &mut [T], start: usize, end: usize, to: &mut [T], at: usize) {
    let from = from.get_mut(start..end).unwrap_or_default();
    let to = to.get_mut(at..).unwrap_or_default();
    for (to, from) in to.iter_mut().zip(from) {
        *to = std::mem::take(from);
    }
}

impl<K, V> Node<K, V> {
    fn keys(&self) -> &[K] {
        self.keys.get(..self.len).unwrap_or_default()
    }

    fn vals<'a>(&self, vals: &'a [V; SLOTS]) -> &'a [V] {
        vals.get(..self.len).unwrap_or_default()
    }

    fn children<'a>(&self, children: &'a [Link<K, V>; SLOTS]) -> &'a [Link<K, V>] {
        children.get(..self.len).unwrap_or_default()
    }
}

impl<K: Default, V: Default> Node<K, V> {
    fn leaf() -> Self {
        Node {
            len: 0,
            keys: array::from_fn(|_| K::default()),
            below: Below::Vals(array::from_fn(|_| V::default())),
        }
    }

    fn internal() -> Self {
        Node {
            len: 0,
            keys: array::from_fn(|_| K::default()),
            below: Below::Children(array::from_fn(|_| None)),
        }
    }

    /// A leaf of the next entries of `entries`, as many as a node keeps.
    fn leaf_of(entries: &mut impl Iterator<Item = (K, V)>) -> Self {
        let mut node = Self::leaf();
        if let Below::Vals(vals) = &mut node.below {
            let slots = node.keys.iter_mut().zip(vals).take(MAX);
            for ((key_slot, val_slot), (key, val)) in slots.zip(entries) {
                (*key_slot, *val_slot) = (key, val);
                node.len += 1;
            }
        }
        node
    }

    /// An internal node over the next `(bound, child)` pairs of `children`,
    /// as many as a node keeps.
    fn internal_of(children: &mut impl Iterator<Item = (K, Arc<Self>)>) -> Self {
        let mut node = Self::internal();
        if let Below::Children(links) = &mut node.below {
            let slots = node.keys.iter_mut().zip(links).take(MAX);
            for ((key_slot, link), (bound, child)) in slots.zip(children) {
                (*key_slot, *link) = (bound, Some(child));
                node.len += 1;
            }
        }
        node
    }

    /// A node of the same kind holding this node's slots from `cut` on.
    fn split_off(&mut self, cut: usize) -> Self {
        let mut right = match &self.below {
            Below::Vals(_) => Self::leaf(),
            Below::Children(_) => Self::internal(),
        };
        right.absorb(self, cut); // same kind by construction
        right
    }

    /// Move the slots of `from` from `start` on to the end of this node,
    /// which has the room. Says whether the two were of one kind, as nodes
    /// of one depth are; otherwise nothing moves.
    fn absorb(&mut self, from: &mut Self, start: usize) -> bool {
        match (&mut from.below, &mut self.below) {
            (Below::Vals(from_vals), Below::Vals(vals)) => {
                slot_move(from_vals, start, from.len, vals, self.len);
            }
            (Below::Children(from_children), Below::Children(children)) => {
                slot_move(from_children, start, from.len, children, self.len);
            }
            _ => return false,
        }
        slot_move(&mut from.keys, start, from.len, &mut self.keys, self.len);
        self.len += from.len.saturating_sub(start);
        from.len = from.len.min(start);
        true
    }
}

/// What an insertion into a subtree did to it.
enum Inserted<K, V> {
    /// The key existed; its previous value.
    Replaced(V),
    Added,
    /// Added, and the node split: the new right sibling under its bound.
    Split(K, Arc<Node<K, V>>),
}

impl<K: Ord + Clone + Default, V: Clone + Default> Node<K, V> {
    /// Insert below `node`, copying it first if it is shared.
    /// `rightmost` is true while the path follows the tree's right edge.
    fn insert(node: &mut Arc<Self>, key: K, value: V, rightmost: bool) -> Inserted<K, V> {
        let node = Arc::make_mut(node);
        let len = node.len;
        let cut = match &mut node.below {
            Below::Vals(vals) => {
                let at = rank(node.keys.get(..len).unwrap_or_default(), &key);
                if at < len && node.keys.get(at) == Some(&key) {
                    return match vals.get_mut(at) {
                        Some(slot) => Inserted::Replaced(std::mem::replace(slot, value)),
                        None => Inserted::Added, // at < len <= SLOTS
                    };
                }
                slot_insert(&mut node.keys, len, at, key);
                slot_insert(vals, len, at, value);
                node.len += 1;
                // Ascending keys land at the end of the last leaf: leave
                // that leaf full instead of halving it, so a table loaded
                // in id order packs its leaves.
                if rightmost && at == len {
                    len
                } else {
                    node.len / 2
                }
            }
            Below::Children(children) => {
                let idx = child_index(node.keys.get(..len).unwrap_or_default(), &key);
                let Some(Some(child)) = children.get_mut(idx) else {
                    return Inserted::Added; // child_index is below len
                };
                let last = idx + 1 == len;
                let (bound, sibling) = match Self::insert(child, key, value, rightmost && last) {
                    Inserted::Split(bound, sibling) => (bound, sibling),
                    done => return done,
                };
                slot_insert(&mut node.keys, len, idx + 1, bound);
                slot_insert(children, len, idx + 1, Some(sibling));
                node.len += 1;
                node.len / 2
            }
        };
        if node.len <= MAX {
            return Inserted::Added;
        }
        let right = node.split_off(cut);
        match right.keys().first().cloned() {
            Some(bound) => Inserted::Split(bound, Arc::new(right)),
            None => Inserted::Added, // cut < len, so the right half is never empty
        }
    }

    /// Remove `key` below `node`, copying the path if it is shared.
    fn remove(node: &mut Arc<Self>, key: &K) -> Option<V> {
        let node = Arc::make_mut(node);
        let len = node.len;
        match &mut node.below {
            Below::Vals(vals) => {
                let at = rank(node.keys.get(..len).unwrap_or_default(), key);
                if at >= len || node.keys.get(at) != Some(key) {
                    return None;
                }
                slot_remove(&mut node.keys, len, at);
                node.len -= 1;
                slot_remove(vals, len, at)
            }
            Below::Children(children) => {
                let idx = child_index(node.keys.get(..len).unwrap_or_default(), key);
                let Some(Some(child)) = children.get_mut(idx) else {
                    return None; // child_index is below len
                };
                let removed = Self::remove(child, key)?;
                if child.len == 0 {
                    // Unlinked, not merged: it may be an only child.
                    slot_remove(&mut node.keys, len, idx);
                    slot_remove(children, len, idx);
                    node.len -= 1;
                } else if child.len < MIN {
                    let merged = (idx > 0 && Self::merge(&mut node.keys, children, len, idx - 1))
                        || Self::merge(&mut node.keys, children, len, idx);
                    node.len -= usize::from(merged);
                }
                Some(removed)
            }
        }
    }

    /// Fold child `left + 1` of the `len` children into child `left` if
    /// the two fit in one node; says whether it did.
    fn merge(
        keys: &mut [K; SLOTS],
        children: &mut [Link<K, V>; SLOTS],
        len: usize,
        left: usize,
    ) -> bool {
        let right = left + 1;
        if right >= len {
            return false;
        }
        let Some((head, tail)) = children.split_at_mut_checked(right) else {
            return false;
        };
        let (Some(Some(l)), Some(Some(r)), Some(bound)) =
            (head.last_mut(), tail.first_mut(), keys.get(right))
        else {
            return false;
        };
        if l.len + r.len > MAX {
            return false;
        }
        let (l, r) = (Arc::make_mut(l), Arc::make_mut(r));
        if let (Below::Children(_), Some(first)) = (&r.below, r.keys.first_mut()) {
            // The first bound of `r` was never consulted and may be
            // stale; the parent's bound for `r` is the live one.
            first.clone_from(bound);
        }
        if !l.absorb(r, 0) {
            return false;
        }
        slot_remove(keys, len, right);
        slot_remove(children, len, right);
        true
    }
}

/// A persistent ordered map; see the module documentation.
pub struct PMap<K, V> {
    root: Arc<Node<K, V>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    /// O(1): the clone shares every node with `self` until one of the two
    /// is written to.
    fn clone(&self) -> Self {
        PMap {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<K: Default, V: Default> Default for PMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Default, V: Default> PMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        PMap {
            root: Arc::new(Node::leaf()),
            len: 0,
        }
    }
}

impl<K, V> PMap<K, V> {
    /// Number of entries, O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the map holds no entry, O(1).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter::default();
        iter.descend(&self.root);
        iter
    }

    /// The leaves that hold entries, in key order, each held; see the
    /// module documentation.
    pub fn leaves(&self) -> Vec<Leaf<K, V>> {
        fn walk<K, V>(node: &Arc<Node<K, V>>, out: &mut Vec<Leaf<K, V>>) {
            match &node.below {
                // Only the root of an empty map is an empty leaf.
                Below::Vals(_) if node.len > 0 => out.push(Leaf(Arc::clone(node))),
                Below::Vals(_) => {}
                Below::Children(children) => {
                    for child in node.children(children).iter().flatten() {
                        walk(child, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut node = &self.root;
        loop {
            match &node.below {
                Below::Vals(vals) => {
                    let at = rank(node.keys(), key);
                    return node
                        .vals(vals)
                        .get(at)
                        .filter(|_| node.keys.get(at) == Some(key));
                }
                Below::Children(children) => {
                    node = children.get(child_index(node.keys(), key))?.as_ref()?;
                }
            }
        }
    }

    /// Hand `found` the entry under each of `keys`, which ascend strictly,
    /// in ascending order; an absent key is skipped. One walk down the
    /// tree: an internal node splits the keys among its children by their
    /// bounds, so each node on the way is entered once, however many of
    /// the keys lie below it, and a single key costs what [`Self::get`]
    /// does.
    pub fn get_sorted<'a>(&'a self, keys: &[K], mut found: impl FnMut(&'a K, &'a V)) {
        fn walk<'a, K: Ord, V>(
            node: &'a Node<K, V>,
            mut keys: &[K],
            found: &mut impl FnMut(&'a K, &'a V),
        ) {
            match &node.below {
                Below::Vals(vals) => {
                    let (mut here, mut vals) = (node.keys(), node.vals(vals));
                    for key in keys {
                        // Later keys are larger: search only what is left.
                        let at = rank(here, key);
                        here = here.get(at..).unwrap_or_default();
                        vals = vals.get(at..).unwrap_or_default();
                        if let (Some(k), Some(v)) = (here.first(), vals.first()) {
                            if k == key {
                                found(k, v);
                            }
                        }
                    }
                }
                Below::Children(children) => {
                    let (mut bounds, mut children) = (node.keys(), node.children(children));
                    while let Some(first) = keys.first() {
                        // The keys below the next child's bound are this
                        // child's; past the last bound, all of them are.
                        let idx = child_index(bounds, first);
                        let mine = match bounds.get(idx + 1) {
                            Some(next) => keys.iter().take_while(|k| *k < next).count(),
                            None => keys.len(),
                        };
                        if let Some(Some(child)) = children.get(idx) {
                            walk(child, keys.get(..mine).unwrap_or_default(), found);
                        }
                        keys = keys.get(mine..).unwrap_or_default();
                        // The next key lies past this child. Resume the
                        // search at it: `child_index` skips the first bound.
                        bounds = bounds.get(idx..).unwrap_or_default();
                        children = children.get(idx..).unwrap_or_default();
                    }
                }
            }
        }
        walk(&self.root, keys, &mut found);
    }

    /// True iff `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Entries with `lo <= key <= hi`, ascending.
    pub fn range(&self, range: RangeInclusive<K>) -> Range<'_, K, V> {
        let (lo, hi) = range.into_inner();
        let mut iter = Iter::default();
        let mut node = &self.root;
        loop {
            match &node.below {
                Below::Vals(vals) => {
                    let start = rank(node.keys(), &lo);
                    let keys = node.keys().get(start..).unwrap_or_default();
                    let vals = node.vals(vals).get(start..).unwrap_or_default();
                    iter.leaf = keys.iter().zip(vals);
                    break;
                }
                Below::Children(children) => {
                    let idx = child_index(node.keys(), &lo);
                    let children = node.children(children);
                    let Some(Some(child)) = children.get(idx) else {
                        break; // child_index is below len
                    };
                    iter.stack
                        .push(children.get(idx + 1..).unwrap_or_default().iter());
                    node = child;
                }
            }
        }
        Range { iter, hi }
    }
}

impl<K: Ord + Clone + Default, V: Clone + Default> PMap<K, V> {
    /// Build a map from entries whose keys ascend strictly, in O(n) and
    /// with every node full. `None` if a key is out of order or repeated.
    pub fn from_sorted(entries: Vec<(K, V)>) -> Option<Self> {
        let ascending = entries
            .iter()
            .zip(entries.iter().skip(1))
            .all(|(a, b)| a.0 < b.0);
        if !ascending {
            return None;
        }
        let len = entries.len();
        // One level at a time, bottom up; each node travels with the
        // smallest key below it, its bound in the level above.
        fn level_of<K: Clone, V>(
            mut next_node: impl FnMut() -> Node<K, V>,
        ) -> Vec<(K, Arc<Node<K, V>>)> {
            let mut level = Vec::new();
            loop {
                let node = next_node();
                let Some(first) = node.keys().first().cloned() else {
                    return level; // the input ran out
                };
                level.push((first, Arc::new(node)));
            }
        }
        let mut entries = entries.into_iter();
        let mut level = level_of(|| Node::leaf_of(&mut entries));
        while level.len() > 1 {
            let mut nodes = level.into_iter();
            level = level_of(|| Node::internal_of(&mut nodes));
        }
        Some(match level.pop() {
            Some((_, root)) => PMap { root, len },
            None => Self::new(),
        })
    }

    /// Store `value` under `key`; returns the value it replaced, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match Node::insert(&mut self.root, key, value, true) {
            Inserted::Replaced(old) => return Some(old),
            Inserted::Added => {}
            Inserted::Split(bound, right) => {
                // The left half's bound is never consulted; any key does.
                let halves = [(bound.clone(), Arc::clone(&self.root)), (bound, right)];
                self.root = Arc::new(Node::internal_of(&mut halves.into_iter()));
            }
        }
        self.len += 1;
        None
    }

    /// Remove `key`; returns its value if it was present. An absent key
    /// copies nothing.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.contains_key(key) {
            return None;
        }
        let removed = Node::remove(&mut self.root, key)?;
        self.len -= 1;
        // A root left with one child hands the tree to that child; one
        // left with none is the empty map.
        while let Below::Children(children) = &self.root.below {
            match self.root.children(children) {
                [] => self.root = Arc::new(Node::leaf()),
                [Some(only)] => self.root = Arc::clone(only),
                _ => break,
            }
        }
        Some(removed)
    }

    /// Mutable access to the value under `key`. Copies the path to it if
    /// shared, so an earlier clone never sees the change; an absent key
    /// copies nothing.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if !self.contains_key(key) {
            return None;
        }
        let mut node = &mut self.root;
        loop {
            let Node { len, keys, below } = Arc::make_mut(node);
            let keys = keys.get(..*len).unwrap_or_default();
            match below {
                Below::Vals(vals) => {
                    let at = rank(keys, key);
                    return vals.get_mut(at).filter(|_| keys.get(at) == Some(key));
                }
                Below::Children(children) => {
                    node = children.get_mut(child_index(keys, key))?.as_mut()?;
                }
            }
        }
    }
}

/// Ascending iterator over a [`PMap`]: the current leaf plus, per level
/// above it, the children not yet visited.
pub struct Iter<'a, K, V> {
    stack: Vec<std::slice::Iter<'a, Link<K, V>>>,
    leaf: std::iter::Zip<std::slice::Iter<'a, K>, std::slice::Iter<'a, V>>,
}

impl<K, V> Default for Iter<'_, K, V> {
    fn default() -> Self {
        Iter {
            stack: Vec::new(),
            leaf: [].iter().zip(&[]),
        }
    }
}

impl<'a, K, V> Iter<'a, K, V> {
    /// Make the leftmost leaf below `node` the current leaf.
    fn descend(&mut self, mut node: &'a Arc<Node<K, V>>) {
        loop {
            match &node.below {
                Below::Vals(vals) => {
                    self.leaf = node.keys().iter().zip(node.vals(vals));
                    return;
                }
                Below::Children(children) => {
                    let mut rest = node.children(children).iter();
                    let Some(Some(first)) = rest.next() else {
                        return; // internal nodes have at least one child
                    };
                    self.stack.push(rest);
                    node = first;
                }
            }
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(entry) = self.leaf.next() {
                return Some(entry);
            }
            let next = loop {
                match self.stack.last_mut()?.next() {
                    Some(child) => break child.as_ref()?,
                    None => {
                        self.stack.pop();
                    }
                }
            };
            self.descend(next);
        }
    }
}

/// A leaf of a [`PMap`], held: while it lives the node is shared, so a
/// write to the map copies it instead of changing it, and its address
/// is not reused. Two leaves that are [`Leaf::same`] therefore hold the
/// same entries, whenever each was taken.
pub struct Leaf<K, V>(Arc<Node<K, V>>);

impl<K, V> Leaf<K, V> {
    /// The leaf's keys, ascending.
    pub fn keys(&self) -> &[K] {
        self.0.keys()
    }

    /// The leaf's values, in key order.
    pub fn values(&self) -> &[V] {
        match &self.0.below {
            Below::Vals(vals) => self.0.vals(vals),
            Below::Children(_) => &[],
        }
    }

    /// True iff both are the one node.
    pub fn same(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Iterator returned by [`PMap::range`].
pub struct Range<'a, K, V> {
    iter: Iter<'a, K, V>,
    hi: K,
}

impl<'a, K: Ord, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        // Keys ascend, so the first one past `hi` ends the range for good.
        self.iter.next().filter(|(k, _)| **k <= self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap, HashSet};
    use std::hash::{DefaultHasher, Hash, Hasher};

    impl<K: Ord + Clone + std::fmt::Debug, V> PMap<K, V> {
        /// Assert every shape rule of the module documentation; returns
        /// the tree's height (1 for a lone leaf).
        fn check(&self) -> usize {
            // (height, entries, smallest key, largest key) of a subtree.
            fn walk<K: Ord + Clone + std::fmt::Debug, V>(
                node: &Node<K, V>,
                is_root: bool,
            ) -> (usize, usize, Option<K>, Option<K>) {
                let keys = node.keys();
                assert!(keys.len() <= MAX, "node over capacity");
                match &node.below {
                    Below::Vals(_) => {
                        assert!(is_root || !keys.is_empty(), "reachable empty leaf");
                        assert!(
                            keys.windows(2).all(|w| w[0] < w[1]),
                            "leaf keys not strictly ascending"
                        );
                        (1, keys.len(), keys.first().cloned(), keys.last().cloned())
                    }
                    Below::Children(children) => {
                        let (live, spare) = children.split_at(node.len);
                        assert!(!live.is_empty(), "reachable empty internal node");
                        assert!(spare.iter().all(Option::is_none), "child past len");
                        let below: Vec<_> = live
                            .iter()
                            .map(|c| walk(c.as_ref().expect("live child"), false))
                            .collect();
                        assert!(
                            below.windows(2).all(|w| w[0].0 == w[1].0),
                            "leaves at different depths"
                        );
                        for (i, bound) in keys.iter().enumerate().skip(1) {
                            assert!(below[i - 1].3.as_ref() < Some(bound), "bound too small");
                            assert!(Some(bound) <= below[i].2.as_ref(), "bound too big");
                        }
                        (
                            below[0].0 + 1,
                            below.iter().map(|b| b.1).sum(),
                            below[0].2.clone(),
                            below[below.len() - 1].3.clone(),
                        )
                    }
                }
            }
            let (height, entries, ..) = walk(&self.root, true);
            assert_eq!(entries, self.len, "len out of step with the tree");
            assert_eq!(self.iter().count(), self.len, "iteration misses entries");
            assert!(
                self.keys().zip(self.keys().skip(1)).all(|(a, b)| a < b),
                "iteration not strictly ascending"
            );
            height
        }

        /// Addresses of every node of this map, shared or not.
        fn nodes(&self) -> HashSet<*const Node<K, V>> {
            fn collect<K, V>(node: &Arc<Node<K, V>>, out: &mut HashSet<*const Node<K, V>>) {
                out.insert(Arc::as_ptr(node));
                if let Below::Children(children) = &node.below {
                    for child in children.iter().flatten() {
                        collect(child, out);
                    }
                }
            }
            let mut out = HashSet::new();
            collect(&self.root, &mut out);
            out
        }

        /// How many of this map's nodes `other` does not hold: the nodes a
        /// write had to copy or create.
        fn nodes_not_in(&self, other: &Self) -> usize {
            self.nodes().difference(&other.nodes()).count()
        }
    }

    /// Leaves held, each with a hash of its entries when it was taken.
    type Held<K, V> = HashMap<*const Node<K, V>, (Leaf<K, V>, u64)>;

    impl<K: Hash + Clone + Ord + std::fmt::Debug, V: Hash> PMap<K, V> {
        /// Hold every leaf of this map, asserting that a leaf that is one
        /// held in `before` still has the entries it had then, and that the
        /// leaves are the map's entries in order. Returns the leaves now
        /// held and how many of them `before` did not hold.
        fn hold_leaves(&self, before: &Held<K, V>) -> (Held<K, V>, usize) {
            let mut held = HashMap::new();
            let mut new = 0;
            let mut keys = Vec::new();
            for leaf in self.leaves() {
                let mut hasher = DefaultHasher::new();
                (leaf.keys(), leaf.values()).hash(&mut hasher);
                let hash = hasher.finish();
                let at = Arc::as_ptr(&leaf.0);
                match before.get(&at) {
                    Some((old, was)) => {
                        assert!(old.same(&leaf));
                        assert_eq!(*was, hash, "a held leaf changed in place");
                    }
                    None => new += 1,
                }
                keys.extend(leaf.keys().iter().cloned());
                held.insert(at, (leaf, hash));
            }
            assert!(
                keys.iter().eq(self.keys()),
                "leaves are not the map in order"
            );
            (held, new)
        }
    }

    fn entries<K: Clone, V: Clone>(map: &PMap<K, V>) -> Vec<(K, V)> {
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    #[test]
    fn empty_map() {
        let mut m: PMap<u64, u64> = PMap::new();
        assert_eq!(m.check(), 1);
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.get_mut(&1), None);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.range(0..=u64::MAX).count(), 0);
        assert!(sorted_hits(&m, &[0, 1, u64::MAX]).is_empty());
        assert!(PMap::<u64, u64>::from_sorted(Vec::new()).is_some_and(|m| m.is_empty()));
    }

    #[test]
    fn ascending_inserts_pack_leaves() {
        let mut m = PMap::new();
        for k in 0..10_000u64 {
            assert_eq!(m.insert(k, k), None);
        }
        m.check();
        // 313 full leaves plus half-full internal levels stay under 350
        // nodes; halving every leaf would need 600 leaves alone.
        assert!(m.nodes().len() < 350, "{} nodes", m.nodes().len());
    }

    #[test]
    fn from_sorted_matches_point_inserts_and_rejects_disorder() {
        for n in [0u64, 1, 31, 32, 33, 1024, 1025, 40_000] {
            let xs: Vec<(u64, u64)> = (0..n).map(|i| (i * 3, i)).collect();
            let bulk = PMap::from_sorted(xs.clone()).expect("ascending input");
            let mut one_by_one = PMap::new();
            for (k, v) in xs.iter().rev() {
                one_by_one.insert(*k, *v);
            }
            bulk.check();
            assert_eq!(bulk.len(), one_by_one.len());
            assert_eq!(entries(&bulk), entries(&one_by_one));
            assert_eq!(bulk.get(&3), one_by_one.get(&3));
        }
        assert!(PMap::from_sorted(vec![(2u64, ()), (1, ())]).is_none());
        assert!(PMap::from_sorted(vec![(1u64, ()), (1, ())]).is_none());
    }

    /// Snapshot cost is pinned by counting nodes, not by timing: a write
    /// after `clone()` copies one root-to-leaf path and nothing else.
    #[test]
    fn a_write_after_clone_copies_one_path() {
        let mut m = PMap::new();
        for k in 0..100_000u64 {
            // Scattered insertion order, so leaves are split mid-way and
            // have room: the inserts below split nothing.
            let key = (k * 7919) % 100_000;
            m.insert(key * 2, vec![key as i128; 4]);
        }
        let height = m.check();
        assert!((3..=5).contains(&height), "height {height}");

        let old = m.clone();
        assert_eq!(m.nodes_not_in(&old), 0, "a clone shares every node");
        assert_eq!(m.insert(100_001, vec![0; 4]), None);
        assert!(
            m.nodes_not_in(&old) <= height,
            "insert copied more than a path"
        );
        // The path is now this map's own: writing along it copies nothing.
        let before = m.nodes();
        m.insert(100_001, vec![1; 4]);
        m.get_mut(&100_000).expect("present").push(9);
        assert_eq!(m.nodes(), before, "an unshared path was copied again");
        // A write elsewhere copies that path only.
        m.remove(&20);
        assert!(m.nodes_not_in(&old) <= 2 * height + 1);
        // The earlier version is untouched.
        assert_eq!(old.len(), 100_000);
        assert_eq!(old.get(&100_001), None);
        assert_eq!(old.get(&100_000), Some(&vec![50_000; 4]));
        assert_eq!(old.get(&20), Some(&vec![10; 4]));
        old.check();
        m.check();

        // With no other holder every node is uniquely owned: no copies.
        drop(old);
        let before = m.nodes();
        for k in 0..1000u64 {
            m.insert(k * 200, vec![2; 4]);
        }
        assert_eq!(m.nodes(), before, "a uniquely owned map copied nodes");
    }

    /// A write replaces the leaves it touches, and only those: every
    /// other leaf is the one node it was before the write.
    #[test]
    fn a_write_replaces_only_the_leaves_it_touches() {
        let mut m = PMap::new();
        for k in 0..10_000u64 {
            m.insert((k * 7919) % 10_000 * 2, k);
        }
        let (held, leaves) = m.hold_leaves(&HashMap::new());
        assert!(leaves > 10_000 / MAX, "{leaves} leaves");
        assert_eq!(m.hold_leaves(&held).1, 0, "an unwritten map has new leaves");
        let old = m.clone();
        m.insert(5_001, 0);
        *m.get_mut(&8_000).expect("present") += 1;
        m.remove(&12_000);
        let (_, new) = m.hold_leaves(&held);
        assert!(
            (3..=4).contains(&new),
            "{new}: one leaf per write, two on a split"
        );
        assert_eq!(
            old.hold_leaves(&held).1,
            0,
            "the clone's leaves were replaced"
        );
    }

    /// Apply `ops` to a map and to `BTreeMap`, comparing every result;
    /// clones taken on the way must keep the state they were taken in.
    /// The map's leaves are held across each op, and a held leaf must
    /// keep its entries: on the map from one op to the next, and on each
    /// clone from when it was taken to the end.
    /// `key_of` is monotone and picks the key type, so the narrow keys that
    /// nodes search by bisection and the wide ones they count both run.
    fn run_against_model<K>(key_of: fn(u32) -> K, prefill: u32, ops: &[(u8, u32, u32)])
    where
        K: Ord + Clone + Default + Hash + std::fmt::Debug,
    {
        let seed: Vec<(K, u32)> = (0..prefill).map(|i| (key_of(i * 2), i)).collect();
        let mut model: BTreeMap<K, u32> = seed.iter().cloned().collect();
        let mut map = PMap::from_sorted(seed).expect("ascending input");
        let mut clones = Vec::new();
        let mut held = HashMap::new();
        let span = prefill * 2 + 64;
        for &(op, key, value) in ops {
            let (lo, key) = (key % span, key_of(key % span));
            match op % 8 {
                0..=2 => assert_eq!(map.insert(key.clone(), value), model.insert(key, value)),
                3 | 4 => assert_eq!(map.remove(&key), model.remove(&key)),
                5 => {
                    assert_eq!(map.get(&key), model.get(&key));
                    assert_eq!(map.contains_key(&key), model.contains_key(&key));
                    let (got, want) = (map.get_mut(&key), model.get_mut(&key));
                    assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        *got = value;
                        *want = value;
                    }
                }
                6 => {
                    let hi = key_of(lo.saturating_add(value % 200));
                    let got: Vec<(&K, &u32)> = map.range(key.clone()..=hi.clone()).collect();
                    let want: Vec<(&K, &u32)> = model.range(key..=hi).collect();
                    assert_eq!(got, want);
                }
                _ => clones.push((map.clone(), model.clone(), map.hold_leaves(&held).0)),
            }
            map.check();
            held = map.hold_leaves(&held).0;
            assert_eq!(map.len(), model.len());
        }
        assert!(map.iter().eq(model.iter()));
        assert!(map.values().eq(model.values()));
        for (clone, state, held) in &clones {
            clone.check();
            assert_eq!(clone.hold_leaves(held).1, 0, "a clone's leaf was replaced");
            assert!(clone.iter().eq(state.iter()), "a clone saw a later write");
        }
    }

    /// What `get_sorted` hands out for `keys`, in the order it does.
    fn sorted_hits<'a, K: Ord, V>(map: &'a PMap<K, V>, keys: &[K]) -> Vec<(&'a K, &'a V)> {
        let mut hits = Vec::new();
        map.get_sorted(keys, |k, v| hits.push((k, v)));
        hits
    }

    /// Build a map by `writes` (mostly removals, so nodes merge and first
    /// bounds go stale), pin a clone, write on, then probe the map and the
    /// clone with `get_sorted` against `BTreeMap`. Map keys are
    /// `key_of(1..)`: `key_of(0)` lies below all of them and `key_of(span)`
    /// above. The probes are sorted and deduplicated, and run with the
    /// edge keys, alone and together, and with the empty list.
    fn get_sorted_against_model<K>(
        key_of: fn(u32) -> K,
        prefill: u32,
        writes: &[(u8, u32)],
        probes: &[Vec<u32>],
    ) where
        K: Ord + Clone + Default + std::fmt::Debug,
    {
        let seed: Vec<(K, u32)> = (1..=prefill).map(|i| (key_of(i * 2), i)).collect();
        let mut model: BTreeMap<K, u32> = seed.iter().cloned().collect();
        let mut map = PMap::from_sorted(seed).expect("ascending input");
        let span = prefill * 2 + 64;
        let (half, rest) = writes.split_at(writes.len() / 2);
        let apply = |map: &mut PMap<K, u32>, model: &mut BTreeMap<K, u32>, ops: &[_]| {
            for &(op, key) in ops {
                let key = key_of(1 + key % (span - 1));
                if op % 4 == 0 {
                    let value = u32::from(op);
                    assert_eq!(map.insert(key.clone(), value), model.insert(key, value));
                } else {
                    assert_eq!(map.remove(&key), model.remove(&key));
                }
            }
        };
        apply(&mut map, &mut model, half);
        let (pinned, pinned_model) = (map.clone(), model.clone());
        apply(&mut map, &mut model, rest);
        map.check();
        pinned.check();
        let (below, above) = (key_of(0), key_of(span));
        let mut lists: Vec<Vec<K>> = vec![Vec::new(), vec![below.clone()], vec![above.clone()]];
        for probe in probes {
            let mut keys: Vec<K> = probe.iter().map(|&k| key_of(1 + k % (span - 1))).collect();
            keys.sort();
            keys.dedup();
            lists.push(keys.clone());
            keys.insert(0, below.clone());
            keys.push(above.clone());
            lists.push(keys);
        }
        // Every key of the map, and every key of its span.
        lists.push(model.keys().cloned().collect());
        lists.push((0..=span).map(key_of).collect());
        for keys in &lists {
            for (map, model) in [(&map, &model), (&pinned, &pinned_model)] {
                let want: Vec<(&K, &u32)> =
                    keys.iter().filter_map(|k| model.get_key_value(k)).collect();
                assert_eq!(sorted_hits(map, keys), want, "probing {keys:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn get_sorted_behaves_like_btreemap(
            prefill in 0u32..3000,
            writes in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..4000),
            probes in proptest::collection::vec(
                proptest::collection::vec(any::<u32>(), 0..400), 1..6),
        ) {
            get_sorted_against_model(u64::from, prefill, &writes, &probes);
            get_sorted_against_model(
                |k| (i128::from(k) - 1000, u64::from(k % 3)),
                prefill,
                &writes,
                &probes,
            );
        }

        #[test]
        fn behaves_like_btreemap(
            prefill in 0u32..2500,
            ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..300),
        ) {
            run_against_model(|k| k, prefill, &ops);
            run_against_model(|k| (i128::from(k) - 1000, u64::from(k % 3)), prefill, &ops);
        }

        /// Delete-heavy: empty a three-level map in a scattered order and
        /// refill it, with clones pinned at both ends.
        #[test]
        fn survives_emptying_and_refilling(stride in 1u32..2000, size in 1100u32..2400) {
            // Any stride coprime to `size` visits every key once.
            prop_assume!(gcd(stride, size) == 1);
            let full = PMap::from_sorted((0..size).map(|k| (k, k)).collect()).expect("ascending");
            let mut map = full.clone();
            for i in 0..size {
                let key = (i * stride) % size;
                prop_assert_eq!(map.remove(&key), Some(key));
                prop_assert_eq!(map.remove(&key), None);
                map.check();
            }
            prop_assert!(map.is_empty());
            prop_assert_eq!(map.check(), 1);
            let empty = map.clone();
            for i in 0..size {
                let key = (i * stride) % size;
                prop_assert_eq!(map.insert(key, key), None);
                map.check();
            }
            prop_assert!(map.iter().eq(full.iter()));
            prop_assert!(empty.is_empty());
            prop_assert_eq!(full.check(), 3);
        }
    }

    fn gcd(a: u32, b: u32) -> u32 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
}
