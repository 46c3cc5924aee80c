//! A small generic directed-graph representation shared by the dominator
//! machinery and (in `spillopt-pst`) the edge-split graphs.

use crate::cfg::Cfg;

/// A directed graph over dense node indices `0..n`.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        }
    }

    /// Returns the number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.succs.len()
    }

    /// Adds a directed edge `u -> v` (parallel edges allowed).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        self.succs[u].push(v as u32);
        self.preds[v].push(u as u32);
    }

    /// Returns the successors of `u`.
    pub fn succs(&self, u: usize) -> &[u32] {
        &self.succs[u]
    }

    /// Returns the predecessors of `u`.
    pub fn preds(&self, u: usize) -> &[u32] {
        &self.preds[u]
    }

    /// Builds the graph of a CFG (nodes are block indices).
    pub fn from_cfg(cfg: &Cfg) -> Graph {
        let mut g = Graph::new(cfg.num_blocks());
        for (_, e) in cfg.edges() {
            g.add_edge(e.from.index(), e.to.index());
        }
        g
    }

    /// Builds the *augmented* graph of a CFG: blocks `0..n` plus a virtual
    /// exit node `n` that every return block feeds into. Useful for
    /// post-dominators on multi-exit functions.
    ///
    /// Returns the graph and the virtual exit's index.
    pub fn from_cfg_with_virtual_exit(cfg: &Cfg) -> (Graph, usize) {
        let n = cfg.num_blocks();
        let mut g = Graph::new(n + 1);
        for (_, e) in cfg.edges() {
            g.add_edge(e.from.index(), e.to.index());
        }
        for &b in cfg.exit_blocks() {
            g.add_edge(b.index(), n);
        }
        (g, n)
    }

    /// Depth-first preorder from `root` (unreachable nodes omitted).
    pub fn preorder(&self, root: usize) -> Vec<usize> {
        let mut seen = vec![false; self.num_nodes()];
        let mut order = Vec::new();
        let mut stack = vec![root];
        seen[root] = true;
        while let Some(u) = stack.pop() {
            order.push(u);
            for &v in self.succs(u).iter().rev() {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v as usize);
                }
            }
        }
        order
    }

    /// Depth-first postorder from `root` (unreachable nodes omitted).
    pub fn postorder(&self, root: usize) -> Vec<usize> {
        let mut seen = vec![false; self.num_nodes()];
        let mut order = Vec::new();
        // (node, next child index)
        let mut stack = vec![(root, 0usize)];
        seen[root] = true;
        while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
            if *ci < self.succs(u).len() {
                let v = self.succs(u)[*ci] as usize;
                *ci += 1;
                if !seen[v] {
                    seen[v] = true;
                    stack.push((v, 0));
                }
            } else {
                order.push(u);
                stack.pop();
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn edges_and_reversal() {
        let g = diamond();
        assert_eq!(g.succs(0), &[1, 2]);
        assert_eq!(g.preds(3), &[1, 2]);
        // The predecessor lists are the reversed graph.
        for u in 0..g.num_nodes() {
            for &v in g.succs(u) {
                assert!(g.preds(v as usize).contains(&(u as u32)));
            }
        }
    }

    #[test]
    fn orders() {
        let g = diamond();
        let pre = g.preorder(0);
        assert_eq!(pre[0], 0);
        assert_eq!(pre.len(), 4);
        // In a diamond, postorder places the join first and the root last.
        let po = g.postorder(0);
        assert_eq!(po[0], 3);
        assert_eq!(po[3], 0);
    }

    #[test]
    fn skips_unreachable() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        assert_eq!(g.preorder(0), vec![0, 1]);
        assert_eq!(g.postorder(0).len(), 2);
    }
}
