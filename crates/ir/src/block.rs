//! Basic blocks.

use crate::inst::Inst;

/// A basic block: a straight-line sequence of instructions.
///
/// A block may end with an explicit terminator (jump, branch, or return) or
/// with no terminator at all, in which case control *falls through* to the
/// next block in the function's layout order. Fall-through blocks are what
/// allow spill code to be inserted on critical fall-through edges without an
/// extra jump instruction, which the paper's jump-edge cost model depends
/// on.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Block {
    /// Optional human-readable name (e.g. `A`..`P` in the paper's worked
    /// example). Purely cosmetic.
    pub name: Option<String>,
    /// The instructions of the block, in execution order.
    pub insts: Vec<Inst>,
}

impl Block {
    /// Creates an empty, unnamed block.
    pub fn new() -> Self {
        Block::default()
    }

    /// Creates an empty block with a cosmetic name.
    pub fn with_name(name: impl Into<String>) -> Self {
        Block {
            name: Some(name.into()),
            insts: Vec::new(),
        }
    }

    /// Returns the terminator instruction, or `None` for a fall-through
    /// block.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.is_terminator())
    }

    /// Returns the terminator instruction mutably, or `None` for a
    /// fall-through block.
    pub fn terminator_mut(&mut self) -> Option<&mut Inst> {
        self.insts.last_mut().filter(|i| i.is_terminator())
    }

    /// Returns `true` if the block ends by falling through to the next
    /// block in layout.
    pub fn falls_through(&self) -> bool {
        self.terminator().is_none()
    }

    /// Returns the number of non-terminator ("body") instructions.
    pub fn body_len(&self) -> usize {
        self.insts.len() - usize::from(self.terminator().is_some())
    }

    /// Returns the index at which code placed "at the bottom" of the block
    /// (before the terminator, if any) should be inserted.
    pub fn bottom_index(&self) -> usize {
        self.body_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BlockId, Reg, VReg};
    use crate::inst::{Inst, InstKind};

    fn v(i: usize) -> Reg {
        Reg::Virt(VReg::from_index(i))
    }

    #[test]
    fn terminator_detection() {
        let mut b = Block::with_name("A");
        assert!(b.falls_through());
        assert_eq!(b.body_len(), 0);
        b.insts.push(Inst::new(InstKind::Move {
            dst: v(0),
            src: v(1),
        }));
        assert!(b.falls_through());
        assert_eq!(b.bottom_index(), 1);
        b.insts.push(Inst::new(InstKind::Jump {
            target: BlockId::from_index(0),
        }));
        assert!(!b.falls_through());
        assert!(b.terminator().is_some());
        assert_eq!(b.body_len(), 1);
        assert_eq!(b.bottom_index(), 1);
    }
}
