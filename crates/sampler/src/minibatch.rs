//! Mini-batch data structures and workload accounting.
//!
//! A mini-batch is the computational graph `{G(V^l, E^l) : 1 ≤ l ≤ L}`
//! extracted by the sampler (paper §II-B, Fig. 1). The layered [`Block`]
//! representation follows the standard message-flow-graph layout: for each
//! GNN layer, a bipartite graph from source vertices (layer `l-1`) to
//! destination vertices (layer `l`), with the destination vertices stored
//! as a *prefix of the source list* so self-features are available to the
//! update stage (GCN self-loop, SAGE concat).

use hyscale_graph::VertexId;

/// One bipartite message-passing layer.
///
/// Local indices: sources are `0..num_src`, destinations are
/// `0..num_dst`, and destination `i` *is* source `i` (prefix property).
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Number of source vertices (rows of the layer's input features).
    pub num_src: usize,
    /// Number of destination vertices (`num_dst <= num_src`).
    pub num_dst: usize,
    /// Edge source endpoints, local indices into the src set.
    pub edge_src: Vec<u32>,
    /// Edge destination endpoints, local indices into the dst set.
    pub edge_dst: Vec<u32>,
}

impl Block {
    /// Number of edges in this layer.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// In-batch in-degree of every destination (number of sampled
    /// in-edges). Used for mean aggregation and GCN normalisation.
    pub fn dst_in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_dst];
        for &d in &self.edge_dst {
            deg[d as usize] += 1;
        }
        deg
    }

    /// In-batch out-degree of every source.
    pub fn src_out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_src];
        for &s in &self.edge_src {
            deg[s as usize] += 1;
        }
        deg
    }

    /// Validate the structural invariants (indices in range, prefix
    /// property representable).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_dst > self.num_src {
            return Err(format!(
                "num_dst {} > num_src {}",
                self.num_dst, self.num_src
            ));
        }
        if self.edge_src.len() != self.edge_dst.len() {
            return Err("edge endpoint arrays differ in length".into());
        }
        if let Some(&s) = self.edge_src.iter().find(|&&s| s as usize >= self.num_src) {
            return Err(format!("edge src {s} out of range {}", self.num_src));
        }
        if let Some(&d) = self.edge_dst.iter().find(|&&d| d as usize >= self.num_dst) {
            return Err(format!("edge dst {d} out of range {}", self.num_dst));
        }
        Ok(())
    }

    /// Edges sorted by source index — the order the FPGA feature
    /// duplicator requires (paper §IV-C). Stable within a source.
    pub fn edges_sorted_by_src(&self) -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> = self
            .edge_src
            .iter()
            .copied()
            .zip(self.edge_dst.iter().copied())
            .collect();
        edges.sort_by_key(|&(s, _)| s);
        edges
    }
}

/// A full sampled mini-batch: blocks ordered input→output
/// (`blocks[0]`'s sources are the vertices whose raw features are
/// gathered; `blocks[L-1]`'s destinations are the seeds).
#[derive(Clone, Debug, Default)]
pub struct MiniBatch {
    /// Global vertex ids of `blocks[0]`'s source set — the rows the
    /// Feature Loader gathers from CPU memory (`V^0` in the paper).
    pub input_nodes: Vec<VertexId>,
    /// Seed (target) vertex ids, `V^L`; labels are read for these.
    pub seeds: Vec<VertexId>,
    /// Message-flow blocks, one per GNN layer, input-most first.
    pub blocks: Vec<Block>,
}

impl MiniBatch {
    /// Number of GNN layers this batch supports.
    pub fn num_layers(&self) -> usize {
        self.blocks.len()
    }

    /// Total edges across all layers — the MTEPS numerator contribution
    /// of this batch (paper Eq. 5: `Σ_l |E^l|`).
    pub fn total_edges(&self) -> u64 {
        self.blocks.iter().map(|b| b.num_edges() as u64).sum()
    }

    /// Validate all blocks plus the inter-block stitching
    /// (`blocks[l].num_dst == blocks[l+1].num_src`).
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err("mini-batch has no blocks".into());
        }
        for (i, b) in self.blocks.iter().enumerate() {
            b.validate().map_err(|e| format!("block {i}: {e}"))?;
        }
        if self.blocks[0].num_src != self.input_nodes.len() {
            return Err(format!(
                "input_nodes {} != blocks[0].num_src {}",
                self.input_nodes.len(),
                self.blocks[0].num_src
            ));
        }
        for w in self.blocks.windows(2) {
            if w[0].num_dst != w[1].num_src {
                return Err(format!(
                    "layer stitching broken: num_dst {} != next num_src {}",
                    w[0].num_dst, w[1].num_src
                ));
            }
        }
        if self.blocks.last().unwrap().num_dst != self.seeds.len() {
            return Err("last block dst count != seeds".into());
        }
        Ok(())
    }

    /// Workload accounting for the timing models.
    pub fn stats(&self) -> WorkloadStats {
        WorkloadStats {
            batch_size: self.seeds.len(),
            input_nodes: self.input_nodes.len(),
            nodes_per_layer: self.blocks.iter().map(|b| b.num_dst).collect(),
            edges_per_layer: self.blocks.iter().map(|b| b.num_edges()).collect(),
        }
    }
}

/// Per-batch workload counters consumed by the performance model and the
/// device timing models (paper Eq. 7–12 are all functions of these).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Seed count (`|V^L|`).
    pub batch_size: usize,
    /// `|V^0|` — rows gathered by the Feature Loader.
    pub input_nodes: usize,
    /// `|V^l|` for `l = 1..=L` (destination counts per block).
    pub nodes_per_layer: Vec<usize>,
    /// `|E^l|` for `l = 1..=L`.
    pub edges_per_layer: Vec<usize>,
}

impl WorkloadStats {
    /// Total edges traversed (MTEPS numerator, Eq. 5).
    pub fn total_edges(&self) -> u64 {
        self.edges_per_layer.iter().map(|&e| e as u64).sum()
    }

    /// Bytes of raw features loaded/transferred for this batch
    /// (`|V^0| · f0 · 4`, Eq. 7–8 numerators).
    pub fn feature_bytes(&self, f0: usize) -> u64 {
        self.input_nodes as u64 * f0 as u64 * 4
    }

    /// Element-wise sum, for aggregating several trainers' batches.
    ///
    /// # Panics
    /// If layer counts differ.
    pub fn merge(&self, other: &WorkloadStats) -> WorkloadStats {
        assert_eq!(self.nodes_per_layer.len(), other.nodes_per_layer.len());
        WorkloadStats {
            batch_size: self.batch_size + other.batch_size,
            input_nodes: self.input_nodes + other.input_nodes,
            nodes_per_layer: self
                .nodes_per_layer
                .iter()
                .zip(&other.nodes_per_layer)
                .map(|(a, b)| a + b)
                .collect(),
            edges_per_layer: self
                .edges_per_layer
                .iter()
                .zip(&other.edges_per_layer)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// A zero-valued stats block with `layers` layers.
    pub fn zero(layers: usize) -> WorkloadStats {
        WorkloadStats {
            batch_size: 0,
            input_nodes: 0,
            nodes_per_layer: vec![0; layers],
            edges_per_layer: vec![0; layers],
        }
    }

    /// Scale all counters by `factor` (used by the analytic estimator to
    /// resize a reference batch).
    pub fn scaled(&self, factor: f64) -> WorkloadStats {
        let s = |v: usize| ((v as f64) * factor).round() as usize;
        WorkloadStats {
            batch_size: s(self.batch_size),
            input_nodes: s(self.input_nodes),
            nodes_per_layer: self.nodes_per_layer.iter().map(|&v| s(v)).collect(),
            edges_per_layer: self.edges_per_layer.iter().map(|&v| s(v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_block() -> Block {
        Block {
            num_src: 4,
            num_dst: 2,
            edge_src: vec![0, 2, 3, 3],
            edge_dst: vec![0, 0, 1, 0],
        }
    }

    #[test]
    fn degrees() {
        let b = tiny_block();
        assert_eq!(b.dst_in_degrees(), vec![3, 1]);
        assert_eq!(b.src_out_degrees(), vec![1, 0, 1, 2]);
    }

    #[test]
    fn validate_catches_bad_indices() {
        let mut b = tiny_block();
        b.edge_src[0] = 9;
        assert!(b.validate().is_err());
        let mut b2 = tiny_block();
        b2.edge_dst[0] = 5;
        assert!(b2.validate().is_err());
        let mut b3 = tiny_block();
        b3.num_dst = 10;
        assert!(b3.validate().is_err());
    }

    #[test]
    fn sorted_edges_by_src() {
        let b = Block {
            num_src: 3,
            num_dst: 3,
            edge_src: vec![2, 0, 1, 0],
            edge_dst: vec![0, 1, 2, 0],
        };
        let e = b.edges_sorted_by_src();
        assert!(e.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn minibatch_validation_and_stats() {
        let mb = MiniBatch {
            input_nodes: vec![10, 11, 12, 13],
            seeds: vec![10],
            blocks: vec![
                tiny_block(),
                Block {
                    num_src: 2,
                    num_dst: 1,
                    edge_src: vec![0, 1],
                    edge_dst: vec![0, 0],
                },
            ],
        };
        mb.validate().unwrap();
        let st = mb.stats();
        assert_eq!(st.batch_size, 1);
        assert_eq!(st.input_nodes, 4);
        assert_eq!(st.nodes_per_layer, vec![2, 1]);
        assert_eq!(st.edges_per_layer, vec![4, 2]);
        assert_eq!(st.total_edges(), 6);
        assert_eq!(mb.total_edges(), 6);
    }

    #[test]
    fn minibatch_validation_catches_stitching() {
        let mb = MiniBatch {
            input_nodes: vec![1, 2, 3, 4],
            seeds: vec![1],
            blocks: vec![
                tiny_block(),
                Block {
                    num_src: 3,
                    num_dst: 1,
                    edge_src: vec![0],
                    edge_dst: vec![0],
                },
            ],
        };
        assert!(mb.validate().is_err());
    }

    #[test]
    fn stats_merge_and_scale() {
        let a = WorkloadStats {
            batch_size: 10,
            input_nodes: 100,
            nodes_per_layer: vec![50, 10],
            edges_per_layer: vec![200, 80],
        };
        let b = a.merge(&a);
        assert_eq!(b.batch_size, 20);
        assert_eq!(b.edges_per_layer, vec![400, 160]);
        let h = a.scaled(0.5);
        assert_eq!(h.batch_size, 5);
        assert_eq!(h.input_nodes, 50);
        assert_eq!(WorkloadStats::zero(2).total_edges(), 0);
    }

    #[test]
    fn feature_bytes_eq7() {
        let a = WorkloadStats {
            batch_size: 1,
            input_nodes: 100,
            nodes_per_layer: vec![1],
            edges_per_layer: vec![1],
        };
        assert_eq!(a.feature_bytes(128), 100 * 128 * 4);
    }
}
