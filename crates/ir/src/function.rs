//! Functions: blocks, layout order, and the stack frame.

use crate::block::Block;
use crate::ids::{BlockId, FrameSlot, VReg};

/// Description of a function's stack frame: a dense array of word-sized
/// slots. Slots are allocated monotonically; the interpreter zero-
/// initializes them.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct FrameInfo {
    num_slots: u32,
}

impl FrameInfo {
    /// Creates an empty frame.
    pub fn new() -> Self {
        FrameInfo::default()
    }

    /// Returns the number of allocated slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots as usize
    }

    /// Allocates a fresh slot.
    pub fn alloc_slot(&mut self) -> FrameSlot {
        let s = FrameSlot::from_index(self.num_slots as usize);
        self.num_slots += 1;
        s
    }

    /// Ensures at least `n` slots exist (used by the parser).
    pub fn reserve_slots(&mut self, n: usize) {
        self.num_slots = self.num_slots.max(n as u32);
    }
}

/// A function: a set of basic blocks with a layout order and a frame.
///
/// Invariants (checked by [`verify`](crate::verify::verify_function)):
///
/// * `layout` is a permutation of all block ids; the entry block is
///   `layout[0]`;
/// * terminators appear only as the last instruction of a block;
/// * a conditional branch's `fallthrough` target is the next block in
///   layout order;
/// * a block with no terminator must not be last in layout (it falls
///   through).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Function {
    name: String,
    blocks: Vec<Block>,
    layout: Vec<BlockId>,
    frame: FrameInfo,
    next_vreg: u32,
    num_params: usize,
}

impl Function {
    /// Creates an empty function (no blocks yet).
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            blocks: Vec::new(),
            layout: Vec::new(),
            frame: FrameInfo::new(),
            next_vreg: 0,
            num_params: 0,
        }
    }

    /// Returns the function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of declared parameters (passed in the target's
    /// argument registers at entry).
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Declares the number of parameters.
    pub fn set_num_params(&mut self, n: usize) {
        self.num_params = n;
    }

    /// Appends a new empty block (also appended to the layout) and returns
    /// its id.
    pub fn add_block(&mut self, name: Option<&str>) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        let block = match name {
            Some(n) => Block::with_name(n),
            None => Block::new(),
        };
        self.blocks.push(block);
        self.layout.push(id);
        id
    }

    /// Returns the number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Returns the block with the given id, mutably.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterates over all block ids in *id* order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::from_index)
    }

    /// Returns the layout (memory) order of the blocks.
    pub fn layout(&self) -> &[BlockId] {
        &self.layout
    }

    /// Replaces the layout order.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is not a permutation of the block ids.
    pub fn set_layout(&mut self, layout: Vec<BlockId>) {
        assert_eq!(layout.len(), self.blocks.len(), "layout length mismatch");
        let mut seen = vec![false; self.blocks.len()];
        for b in &layout {
            assert!(!seen[b.index()], "duplicate block {b} in layout");
            seen[b.index()] = true;
        }
        self.layout = layout;
    }

    /// Returns the entry block (first in layout).
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks.
    pub fn entry(&self) -> BlockId {
        *self.layout.first().expect("function has no blocks")
    }

    /// Returns the layout position of a block.
    pub fn layout_pos(&self, b: BlockId) -> usize {
        self.layout
            .iter()
            .position(|&x| x == b)
            .expect("block not in layout")
    }

    /// Returns the block following `b` in layout, if any.
    pub fn layout_next(&self, b: BlockId) -> Option<BlockId> {
        let pos = self.layout_pos(b);
        self.layout.get(pos + 1).copied()
    }

    /// Inserts block `b` into the layout immediately after `after`.
    ///
    /// The block must currently be last in layout (i.e. freshly added via
    /// [`add_block`](Self::add_block)).
    pub fn move_block_after(&mut self, b: BlockId, after: BlockId) {
        assert_eq!(self.layout.last(), Some(&b), "block must be freshly added");
        self.layout.pop();
        let pos = self.layout_pos(after);
        self.layout.insert(pos + 1, b);
    }

    /// Returns the stack frame description.
    pub fn frame(&self) -> &FrameInfo {
        &self.frame
    }

    /// Returns the stack frame description, mutably.
    pub fn frame_mut(&mut self) -> &mut FrameInfo {
        &mut self.frame
    }

    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let v = VReg::from_index(self.next_vreg as usize);
        self.next_vreg += 1;
        v
    }

    /// Returns the number of virtual registers ever allocated (the dense
    /// index limit).
    pub fn num_vregs(&self) -> usize {
        self.next_vreg as usize
    }

    /// Ensures the vreg counter is at least `n` (used by the parser).
    pub fn reserve_vregs(&mut self, n: usize) {
        self.next_vreg = self.next_vreg.max(n as u32);
    }

    /// Returns the ids of all blocks ending in a `Return`.
    pub fn exit_blocks(&self) -> Vec<BlockId> {
        self.block_ids()
            .filter(|&b| {
                matches!(
                    self.block(b).terminator().map(|t| &t.kind),
                    Some(crate::inst::InstKind::Return { .. })
                )
            })
            .collect()
    }

    /// Total number of instructions across all blocks (static size).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, InstKind};

    #[test]
    fn blocks_and_layout() {
        let mut f = Function::new("f");
        let a = f.add_block(Some("A"));
        let b = f.add_block(Some("B"));
        let c = f.add_block(None);
        assert_eq!(f.num_blocks(), 3);
        assert_eq!(f.entry(), a);
        assert_eq!(f.layout(), &[a, b, c]);
        assert_eq!(f.layout_next(a), Some(b));
        assert_eq!(f.layout_next(c), None);
        f.set_layout(vec![a, c, b]);
        assert_eq!(f.layout_next(a), Some(c));
        assert_eq!(f.layout_pos(b), 2);
    }

    #[test]
    fn move_block_after_inserts_in_layout() {
        let mut f = Function::new("f");
        let a = f.add_block(None);
        let b = f.add_block(None);
        let c = f.add_block(None);
        f.move_block_after(c, a);
        assert_eq!(f.layout(), &[a, c, b]);
    }

    #[test]
    #[should_panic(expected = "duplicate block")]
    fn layout_must_be_permutation() {
        let mut f = Function::new("f");
        let a = f.add_block(None);
        let _b = f.add_block(None);
        f.set_layout(vec![a, a]);
    }

    #[test]
    fn frame_and_vregs() {
        let mut f = Function::new("f");
        let s0 = f.frame_mut().alloc_slot();
        let s1 = f.frame_mut().alloc_slot();
        assert_eq!(s0.index(), 0);
        assert_eq!(s1.index(), 1);
        assert_eq!(f.frame().num_slots(), 2);
        let v0 = f.new_vreg();
        let v1 = f.new_vreg();
        assert_ne!(v0, v1);
        assert_eq!(f.num_vregs(), 2);
    }

    #[test]
    fn exit_blocks_finds_returns() {
        let mut f = Function::new("f");
        let a = f.add_block(None);
        let b = f.add_block(None);
        f.block_mut(a)
            .insts
            .push(Inst::new(InstKind::Jump { target: b }));
        f.block_mut(b)
            .insts
            .push(Inst::new(InstKind::Return { value: None }));
        assert_eq!(f.exit_blocks(), vec![b]);
    }
}
