//! GraphSAGE neighbor sampling (paper \[2], used in §VI-A2).
//!
//! For each seed batch, sample `fanouts[0]` neighbours of every seed, then
//! `fanouts[1]` neighbours of every layer-1 vertex, etc. Destination
//! vertices are kept as a prefix of the source set so the update stage can
//! read self-features. Sampling is without replacement: a vertex with
//! degree ≤ fanout keeps all its neighbours (PyG `NeighborLoader`
//! semantics).
//!
//! Global ids are remapped to per-hop local indices through an
//! open-addressing table of `2·min(|layer|·(fanout+1), |V|)` slots, so
//! its memory follows the batch rather than the graph (DistDGL remaps
//! sampled ids with a per-sampler table the same way).
//! [`NeighborSampler::sample_into`] refills a recycled [`MiniBatch`] and
//! keeps its working memory in a [`SampleScratch`], so a producer that
//! hands batches back allocates nothing once the buffers have grown to
//! its batch size. Every draw and every insertion happens in the same
//! order as a fresh [`NeighborSampler::sample`], so reuse changes no bit.

use crate::minibatch::{Block, MiniBatch};
use hyscale_graph::{CsrGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fanout-based layered neighbor sampler.
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    /// Per-hop fanouts, seed-side first (paper: `(25, 10)`).
    fanouts: Vec<usize>,
    /// Base RNG seed; each `(epoch, iteration, trainer)` derives a unique
    /// stream from it.
    seed: u64,
}

impl NeighborSampler {
    /// Sampler with the given per-hop fanouts (seed-side hop first).
    ///
    /// # Panics
    /// If `fanouts` is empty or contains a zero.
    pub fn new(fanouts: Vec<usize>, seed: u64) -> Self {
        assert!(!fanouts.is_empty(), "need at least one hop");
        assert!(fanouts.iter().all(|&f| f > 0), "fanouts must be positive");
        Self { fanouts, seed }
    }

    /// The paper's evaluation configuration: fanouts (25, 10).
    pub fn paper_default(seed: u64) -> Self {
        Self::new(vec![25, 10], seed)
    }

    /// Number of GNN layers this sampler produces blocks for.
    pub fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    /// The configured fanouts.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Sample one mini-batch for `seeds`, deterministically derived from
    /// `(self.seed, stream)`. `stream` should encode epoch/iteration/
    /// trainer so parallel trainers draw independent batches.
    ///
    /// [`sample_into`](Self::sample_into) over fresh buffers.
    ///
    /// # Panics
    /// If a seed is not a vertex of `graph`.
    pub fn sample(&self, graph: &CsrGraph, seeds: &[VertexId], stream: u64) -> MiniBatch {
        let mut batch = MiniBatch::default();
        self.sample_into(
            graph,
            seeds,
            stream,
            &mut batch,
            &mut SampleScratch::default(),
        );
        batch
    }

    /// [`sample`](Self::sample) into a recycled `batch`: its vectors are
    /// cleared and refilled in place, and `scratch` carries the remap
    /// table and draw buffers between calls. Whatever either held before
    /// (another seed set, batch size or fanout list) has no effect on the
    /// result, which is bit for bit what `sample` returns.
    ///
    /// # Panics
    /// If a seed is not a vertex of `graph`; the message names the seed
    /// and `|V|`.
    pub fn sample_into(
        &self,
        graph: &CsrGraph,
        seeds: &[VertexId],
        stream: u64,
        batch: &mut MiniBatch,
        scratch: &mut SampleScratch,
    ) {
        let num_vertices = graph.num_vertices();
        if let Some(&bad) = seeds.iter().find(|&&v| v as usize >= num_vertices) {
            panic!(
                "seed vertex {bad} is out of range: the graph has |V| = {num_vertices} vertices"
            );
        }
        let mut rng = SmallRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15));
        let hops = self.fanouts.len();
        batch.seeds.clear();
        batch.seeds.extend_from_slice(seeds);
        batch.blocks.resize_with(hops, Block::default);
        let SampleScratch {
            dst: dst_buf,
            src: src_buf,
            remap,
            draw,
        } = scratch;
        for (h, &fanout) in self.fanouts.iter().enumerate() {
            // Hop h's sources are hop h+1's destinations; the last hop's
            // sources are the rows the Feature Loader gathers.
            let last = h + 1 == hops;
            let dst: &[VertexId] = if h == 0 { seeds } else { dst_buf };
            let src = if last {
                &mut batch.input_nodes
            } else {
                &mut *src_buf
            };
            let block = &mut batch.blocks[hops - 1 - h];
            sample_hop(graph, dst, fanout, &mut rng, src, block, remap, draw);
            if !last {
                std::mem::swap(dst_buf, src_buf);
            }
        }
    }
}

/// Reusable working memory of [`NeighborSampler::sample_into`]: the
/// intermediate layers' vertex lists, the id remap table and the
/// per-vertex draw buffers. Start from `SampleScratch::default()`; it
/// grows to the largest batch it has served and then stops allocating.
#[derive(Clone, Debug, Default)]
pub struct SampleScratch {
    dst: Vec<VertexId>,
    src: Vec<VertexId>,
    remap: RemapTable,
    draw: DrawScratch,
}

/// Buffers of one vertex's neighbour draw.
#[derive(Clone, Debug, Default)]
struct DrawScratch {
    /// The drawn neighbours, in draw order.
    picked: Vec<VertexId>,
    /// Distinct neighbour positions (rejection-sampling branch).
    chosen: Vec<usize>,
    /// A copy of the neighbour list (partial Fisher–Yates branch).
    shuffled: Vec<VertexId>,
}

/// One hop: `src` starts as a copy of `dst` (prefix property) and grows
/// with newly met neighbours in draw order; `block` gets the hop's edges
/// in local indices.
#[allow(clippy::too_many_arguments)]
fn sample_hop(
    graph: &CsrGraph,
    dst: &[VertexId],
    fanout: usize,
    rng: &mut SmallRng,
    src: &mut Vec<VertexId>,
    block: &mut Block,
    remap: &mut RemapTable,
    draw: &mut DrawScratch,
) {
    src.clear();
    src.extend_from_slice(dst);
    remap.reset(
        dst.len()
            .saturating_mul(fanout + 1)
            .min(graph.num_vertices()),
    );
    // A seed listed twice keeps both source rows; the last one owns the
    // id's map entry, so later edges point at it.
    for (i, &v) in dst.iter().enumerate() {
        remap.insert(v, i as u32);
    }
    block.edge_src.clear();
    block.edge_dst.clear();
    for (di, &v) in dst.iter().enumerate() {
        sample_without_replacement(graph.neighbors(v), fanout, rng, draw);
        for &u in &draw.picked {
            let next = src.len() as u32;
            // Every mapped value is below `next`, so getting `next` back
            // means `u` was just inserted as a new source.
            let si = remap.get_or_insert(u, next);
            if si == next {
                src.push(u);
            }
            block.edge_src.push(si);
            block.edge_dst.push(di as u32);
        }
    }
    block.num_src = src.len();
    block.num_dst = dst.len();
}

/// Open-addressing map from a global vertex id to its local source
/// index: multiplicative hashing, linear probing, and a generation stamp
/// per slot, so emptying the table is one counter bump. Its live part is
/// twice the ids one hop can insert, so a probe always meets an empty
/// slot; the allocation grows when a hop needs more and never shrinks.
#[derive(Clone, Debug, Default)]
struct RemapTable {
    slots: Vec<Slot>,
    /// The live table is `slots[..size]`.
    size: usize,
    /// Stamp of the live entries; a slot with another stamp is empty.
    generation: u32,
}

#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    key: VertexId,
    value: u32,
    stamp: u32,
}

/// Smallest live table, in slots.
const MIN_SLOTS: usize = 16;

impl RemapTable {
    /// Empty the table for at most `distinct` keys. O(1) unless the table
    /// grows or the generation counter wraps (then every stamp is
    /// cleared once).
    fn reset(&mut self, distinct: usize) {
        let size = distinct.saturating_mul(2).max(MIN_SLOTS);
        if self.slots.len() < size {
            self.slots.resize(size, Slot::default());
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            for slot in &mut self.slots {
                slot.stamp = 0;
            }
            self.generation = 1;
        }
        self.size = size;
    }

    /// The slot a probe for `key` starts at: the top bits of a Fibonacci
    /// hash, scaled to the live size.
    fn home(&self, key: VertexId) -> usize {
        let hash = key.wrapping_mul(0x9E37_79B9);
        ((u64::from(hash) * self.size as u64) >> 32) as usize
    }

    /// The slot holding `key`, or the empty slot where it would go.
    fn probe(&self, key: VertexId) -> usize {
        let mut i = self.home(key);
        loop {
            let slot = &self.slots[i];
            if slot.stamp != self.generation || slot.key == key {
                return i;
            }
            i += 1;
            if i == self.size {
                i = 0;
            }
        }
    }

    /// Map `key` to `value`, replacing any earlier value.
    fn insert(&mut self, key: VertexId, value: u32) {
        let i = self.probe(key);
        self.slots[i] = Slot {
            key,
            value,
            stamp: self.generation,
        };
    }

    /// `key`'s value, inserting `value` first if `key` is absent.
    fn get_or_insert(&mut self, key: VertexId, value: u32) -> u32 {
        let i = self.probe(key);
        let generation = self.generation;
        let slot = &mut self.slots[i];
        if slot.stamp != generation {
            *slot = Slot {
                key,
                value,
                stamp: generation,
            };
        }
        slot.value
    }
}

/// Reservoir-free sampling without replacement into `draw.picked`: if
/// `fanout >= n` take all neighbours (copy), else draw distinct positions
/// by rejection when `fanout << n`, or run a partial Fisher–Yates over a
/// copy of the list.
fn sample_without_replacement(
    neighbors: &[VertexId],
    fanout: usize,
    rng: &mut SmallRng,
    draw: &mut DrawScratch,
) {
    let out = &mut draw.picked;
    out.clear();
    let n = neighbors.len();
    if n <= fanout {
        out.extend_from_slice(neighbors);
        return;
    }
    if fanout * 8 < n {
        // rejection sampling of distinct indices
        let chosen = &mut draw.chosen;
        chosen.clear();
        while chosen.len() < fanout {
            let idx = rng.gen_range(0..n);
            if !chosen.contains(&idx) {
                chosen.push(idx);
            }
        }
        out.extend(chosen.iter().map(|&i| neighbors[i]));
    } else {
        let shuffled = &mut draw.shuffled;
        shuffled.clear();
        shuffled.extend_from_slice(neighbors);
        for i in 0..fanout {
            let j = rng.gen_range(i..n);
            shuffled.swap(i, j);
        }
        out.extend_from_slice(&shuffled[..fanout]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_graph::generator::{sbm, SbmConfig};

    fn test_graph() -> CsrGraph {
        let (g, _) = sbm(
            SbmConfig {
                num_vertices: 500,
                communities: 5,
                avg_degree: 12,
                p_intra: 0.8,
            },
            1,
        );
        g.symmetrize()
    }

    #[test]
    fn sample_structure_valid() {
        let g = test_graph();
        let sampler = NeighborSampler::new(vec![5, 3], 7);
        let seeds: Vec<VertexId> = (0..32).collect();
        let mb = sampler.sample(&g, &seeds, 0);
        mb.validate().unwrap();
        assert_eq!(mb.num_layers(), 2);
        assert_eq!(mb.seeds, seeds);
        // seed-side block is last; its dst count equals the seed count
        assert_eq!(mb.blocks[1].num_dst, 32);
        // fanout bound per layer
        assert!(mb.blocks[1].num_edges() <= 32 * 5);
        assert!(mb.blocks[0].num_edges() <= mb.blocks[0].num_dst * 3);
    }

    #[test]
    fn fanout_respected_per_destination() {
        let g = test_graph();
        let sampler = NeighborSampler::new(vec![4], 3);
        let seeds: Vec<VertexId> = (0..16).collect();
        let mb = sampler.sample(&g, &seeds, 1);
        for (d, deg) in mb.blocks[0].dst_in_degrees().iter().enumerate() {
            let full = g.out_degree(seeds[d]);
            assert!(*deg as usize <= 4.min(full), "dst {d} has {deg} edges");
        }
    }

    #[test]
    fn low_degree_vertices_keep_all_neighbors() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (3, 0)]).unwrap();
        let sampler = NeighborSampler::new(vec![10], 0);
        let mb = sampler.sample(&g, &[0], 0);
        assert_eq!(mb.blocks[0].num_edges(), 2);
    }

    #[test]
    fn deterministic_in_stream() {
        let g = test_graph();
        let sampler = NeighborSampler::paper_default(9);
        let seeds: Vec<VertexId> = (0..64).collect();
        let a = sampler.sample(&g, &seeds, 5);
        let b = sampler.sample(&g, &seeds, 5);
        let c = sampler.sample(&g, &seeds, 6);
        assert_eq!(a.input_nodes, b.input_nodes);
        assert_eq!(a.blocks[0].edge_src, b.blocks[0].edge_src);
        assert_ne!(
            (a.input_nodes.clone(), a.blocks[0].edge_src.clone()),
            (c.input_nodes.clone(), c.blocks[0].edge_src.clone()),
            "different streams should differ"
        );
    }

    #[test]
    fn prefix_property_holds() {
        let g = test_graph();
        let sampler = NeighborSampler::new(vec![6, 4], 2);
        let seeds: Vec<VertexId> = (10..42).collect();
        let mb = sampler.sample(&g, &seeds, 3);
        // blocks[1] dst = seeds; they must be the first entries of
        // blocks[1] src, which equals blocks[0] dst ids.
        // By construction src_nodes starts as a copy of layer_nodes.
        assert!(mb.blocks[0].num_src >= mb.blocks[0].num_dst);
        assert!(mb.blocks[1].num_src >= mb.blocks[1].num_dst);
        // input nodes begin with the layer-1 dst set
        assert_eq!(&mb.input_nodes[..mb.seeds.len()], &mb.seeds[..]);
    }

    #[test]
    fn sibling_streams_give_independent_batches() {
        // One iteration's trainers: disjoint seed sets on streams
        // base+1 and base+2, sampled through one shared scratch.
        let g = test_graph();
        let sampler = NeighborSampler::paper_default(11);
        let s1: Vec<VertexId> = (0..32).collect();
        let s2: Vec<VertexId> = (32..64).collect();
        let mut scratch = SampleScratch::default();
        let mut batches = [MiniBatch::default(), MiniBatch::default()];
        for (i, (seeds, batch)) in [&s1, &s2].into_iter().zip(&mut batches).enumerate() {
            sampler.sample_into(&g, seeds, 100 + i as u64 + 1, batch, &mut scratch);
        }
        batches[0].validate().unwrap();
        batches[1].validate().unwrap();
        assert_eq!(batches[0].seeds, s1);
        assert_eq!(batches[1].seeds, s2);
    }

    #[test]
    fn dedup_shrinks_input_nodes() {
        // In a dense community graph, two-hop neighbourhoods overlap, so
        // |V0| must be well below the no-dedup upper bound.
        let g = test_graph();
        let sampler = NeighborSampler::new(vec![10, 10], 4);
        let seeds: Vec<VertexId> = (0..100).collect();
        let mb = sampler.sample(&g, &seeds, 0);
        let no_dedup_bound = 100 * 11 * 11;
        assert!(
            mb.input_nodes.len() < no_dedup_bound / 2,
            "dedup ineffective: {} vs bound {}",
            mb.input_nodes.len(),
            no_dedup_bound
        );
    }

    #[test]
    #[should_panic(expected = "fanouts must be positive")]
    fn rejects_zero_fanout() {
        let _ = NeighborSampler::new(vec![5, 0], 1);
    }

    #[test]
    #[should_panic(expected = "seed vertex 500 is out of range: the graph has |V| = 500 vertices")]
    fn rejects_a_seed_outside_the_graph() {
        let g = test_graph();
        let _ = NeighborSampler::new(vec![3], 1).sample(&g, &[4, 500, 7], 0);
    }

    /// The sampler as it was before `sample_into`: a SipHash `HashMap`
    /// remap and fresh buffers per call. The bitwise reference.
    fn reference_sample(
        fanouts: &[usize],
        seed: u64,
        graph: &CsrGraph,
        seeds: &[VertexId],
        stream: u64,
    ) -> MiniBatch {
        use std::collections::HashMap;
        let mut rng = SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15));
        let mut blocks_rev: Vec<Block> = Vec::with_capacity(fanouts.len());
        let mut layer_nodes: Vec<VertexId> = seeds.to_vec();
        for &fanout in fanouts {
            let mut src_nodes: Vec<VertexId> = layer_nodes.clone();
            let mut local: HashMap<VertexId, u32> =
                HashMap::with_capacity(layer_nodes.len() * (fanout + 1));
            for (i, &v) in layer_nodes.iter().enumerate() {
                local.insert(v, i as u32);
            }
            let mut edge_src: Vec<u32> = Vec::with_capacity(layer_nodes.len() * fanout);
            let mut edge_dst: Vec<u32> = Vec::with_capacity(layer_nodes.len() * fanout);
            for (di, &v) in layer_nodes.iter().enumerate() {
                for u in reference_draw(graph.neighbors(v), fanout, &mut rng) {
                    let next = src_nodes.len() as u32;
                    let si = *local.entry(u).or_insert_with(|| {
                        src_nodes.push(u);
                        next
                    });
                    edge_src.push(si);
                    edge_dst.push(di as u32);
                }
            }
            blocks_rev.push(Block {
                num_src: src_nodes.len(),
                num_dst: layer_nodes.len(),
                edge_src,
                edge_dst,
            });
            layer_nodes = src_nodes;
        }
        blocks_rev.reverse();
        MiniBatch {
            input_nodes: layer_nodes,
            seeds: seeds.to_vec(),
            blocks: blocks_rev,
        }
    }

    /// The old allocating `sample_without_replacement`.
    fn reference_draw(neighbors: &[VertexId], fanout: usize, rng: &mut SmallRng) -> Vec<VertexId> {
        let n = neighbors.len();
        if n <= fanout {
            return neighbors.to_vec();
        }
        if fanout * 8 < n {
            let mut chosen: Vec<usize> = Vec::with_capacity(fanout);
            while chosen.len() < fanout {
                let idx = rng.gen_range(0..n);
                if !chosen.contains(&idx) {
                    chosen.push(idx);
                }
            }
            chosen.into_iter().map(|i| neighbors[i]).collect()
        } else {
            let mut scratch: Vec<VertexId> = neighbors.to_vec();
            for i in 0..fanout {
                let j = rng.gen_range(i..n);
                scratch.swap(i, j);
            }
            scratch.truncate(fanout);
            scratch
        }
    }

    fn assert_same_batch(got: &MiniBatch, want: &MiniBatch, what: &str) {
        assert_eq!(got.seeds, want.seeds, "{what}: seeds");
        assert_eq!(got.input_nodes, want.input_nodes, "{what}: input nodes");
        assert_eq!(got.blocks.len(), want.blocks.len(), "{what}: layers");
        for (l, (a, b)) in got.blocks.iter().zip(&want.blocks).enumerate() {
            assert_eq!(a.num_src, b.num_src, "{what}: block {l} num_src");
            assert_eq!(a.num_dst, b.num_dst, "{what}: block {l} num_dst");
            assert_eq!(a.edge_src, b.edge_src, "{what}: block {l} edge_src");
            assert_eq!(a.edge_dst, b.edge_dst, "{what}: block {l} edge_dst");
        }
    }

    /// A vertex of degree 100 (rejection branch at fanout 5), one of
    /// degree 20 (Fisher–Yates at fanout 5), leaves of degree 1, and a
    /// sparse ring, so one sample visits every draw branch.
    fn branchy_graph() -> CsrGraph {
        let n = 200u32;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        edges.extend((1..=100).map(|u| (0, u)));
        edges.extend((101..121).map(|u| (1, u)));
        edges.extend((2..n).map(|v| (v, (v * 7 + 3) % n)));
        edges.extend((2..n).step_by(3).map(|v| (v, (v + 1) % n)));
        CsrGraph::from_edges(n as usize, &edges).unwrap()
    }

    #[test]
    fn sample_into_matches_the_hashmap_reference_on_reused_buffers() {
        let g = test_graph();
        let wide = NeighborSampler::new(vec![10, 5], 3);
        let narrow = NeighborSampler::new(vec![2, 7, 3], 3);
        let large: Vec<VertexId> = (0..200).map(|i| (i * 37) % 500).collect();
        let small: Vec<VertexId> = vec![499, 3, 250];
        let mut batch = MiniBatch {
            input_nodes: vec![u32::MAX; 17],
            seeds: vec![9; 4],
            blocks: vec![Block::default(); 5],
        };
        let mut scratch = SampleScratch::default();
        // large, small with another fanout list, large again: every step
        // runs on the buffers the previous one left behind
        let steps: [(&NeighborSampler, &[VertexId], u64); 4] = [
            (&wide, &large, 1),
            (&narrow, &small, 2),
            (&wide, &large, 3),
            (&narrow, &large, 4),
        ];
        for (k, (sampler, seeds, stream)) in steps.into_iter().enumerate() {
            sampler.sample_into(&g, seeds, stream, &mut batch, &mut scratch);
            let want = reference_sample(&sampler.fanouts, sampler.seed, &g, seeds, stream);
            assert_same_batch(&batch, &want, &format!("step {k}"));
            batch.validate().unwrap();
        }
    }

    #[test]
    fn sample_into_matches_the_reference_on_both_draw_branches() {
        let g = branchy_graph();
        let sampler = NeighborSampler::new(vec![5, 5], 8);
        let mut batch = MiniBatch::default();
        let mut scratch = SampleScratch::default();
        for stream in 0..20 {
            let seeds: Vec<VertexId> = vec![0, 1, 5 + stream as u32, 0, 150];
            sampler.sample_into(&g, &seeds, stream, &mut batch, &mut scratch);
            let want = reference_sample(&sampler.fanouts, sampler.seed, &g, &seeds, stream);
            assert_same_batch(&batch, &want, &format!("stream {stream}"));
        }
        // each branch draws the same values and leaves the RNG in the same
        // state as the old allocating draw
        let mut draw = DrawScratch::default();
        for (v, expect_all) in [(0u32, false), (1, false), (7, true)] {
            let neigh = g.neighbors(v);
            let mut a = SmallRng::seed_from_u64(v as u64);
            let mut b = SmallRng::seed_from_u64(v as u64);
            sample_without_replacement(neigh, 5, &mut a, &mut draw);
            assert_eq!(draw.picked, reference_draw(neigh, 5, &mut b), "vertex {v}");
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "vertex {v}: RNG state");
            assert_eq!(draw.picked.len() == neigh.len(), expect_all, "vertex {v}");
        }
        assert!(
            g.neighbors(0).len() > 5 * 8,
            "vertex 0 must take the rejection branch"
        );
        let fy = g.neighbors(1).len();
        assert!(
            fy > 5 && fy <= 5 * 8,
            "vertex 1 must take the Fisher-Yates branch"
        );
    }

    #[test]
    fn duplicate_seeds_keep_both_rows_and_the_last_owns_the_id() {
        // 1 -> 0 and 0 -> 1; seeds [1, 0, 1] list vertex 1 twice
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0)]).unwrap();
        let sampler = NeighborSampler::new(vec![5], 0);
        let seeds = [1, 0, 1];
        let mut batch = MiniBatch::default();
        sampler.sample_into(&g, &seeds, 0, &mut batch, &mut SampleScratch::default());
        assert_same_batch(
            &batch,
            &reference_sample(&[5], 0, &g, &seeds, 0),
            "duplicates",
        );
        assert_eq!(batch.input_nodes, vec![1, 0, 1], "both copies stay in src");
        // vertex 0 is local 1; vertex 1 is local 2, its last occurrence
        assert_eq!(batch.blocks[0].edge_src, vec![1, 2, 1]);
        assert_eq!(batch.blocks[0].edge_dst, vec![0, 1, 2]);
    }

    #[test]
    fn low_degree_seeds_keep_every_neighbour_in_order() {
        let g = CsrGraph::from_edges(6, &[(0, 4), (0, 2), (0, 5), (3, 1)]).unwrap();
        let sampler = NeighborSampler::new(vec![3, 10], 2);
        let seeds = [0, 3];
        let mut batch = MiniBatch::default();
        sampler.sample_into(&g, &seeds, 9, &mut batch, &mut SampleScratch::default());
        assert_same_batch(
            &batch,
            &reference_sample(&[3, 10], 2, &g, &seeds, 9),
            "low degree",
        );
        assert_eq!(batch.blocks[1].edge_src, vec![2, 3, 4, 5]);
        assert_eq!(batch.input_nodes[..6], [0, 3, 4, 2, 5, 1]);
    }

    #[test]
    fn remap_table_matches_a_hashmap_through_collisions() {
        use std::collections::HashMap;
        let mut table = RemapTable::default();
        table.reset(4); // MIN_SLOTS live slots
                        // keys sharing one home slot, plus keys homed in the last slot so
                        // their probes wrap around to slot 0
        let home = |k: u32| table.home(k);
        let first = (0..10_000u32).find(|&k| home(k) == 7).unwrap();
        let shared: Vec<u32> = (0..10_000u32)
            .filter(|&k| home(k) == home(first))
            .take(4)
            .collect();
        let wrapping: Vec<u32> = (0..10_000u32)
            .filter(|&k| home(k) == table.size - 1)
            .take(3)
            .collect();
        assert_eq!(shared.len(), 4);
        assert_eq!(wrapping.len(), 3);
        let mut reference: HashMap<u32, u32> = HashMap::new();
        let keys: Vec<u32> = shared.iter().chain(&wrapping).copied().collect();
        for (round, &k) in keys.iter().chain(keys.iter().rev()).enumerate() {
            let value = 100 + round as u32;
            let want = *reference.entry(k).or_insert(value);
            assert_eq!(table.get_or_insert(k, value), want, "key {k}");
        }
        // insert overwrites, like HashMap::insert
        table.insert(shared[2], 7);
        assert_eq!(table.get_or_insert(shared[2], 99), 7);
        assert_eq!(table.get_or_insert(shared[3], 99), reference[&shared[3]]);
        // a reset empties the table without touching the slots
        table.reset(4);
        assert_eq!(
            table.get_or_insert(shared[0], 5),
            5,
            "stale entry survived a reset"
        );
    }

    #[test]
    fn generation_wrap_clears_stale_entries() {
        let mut table = RemapTable::default();
        table.reset(4);
        table.generation = u32::MAX;
        table.insert(11, 1);
        table.reset(4); // wraps: every stamp is cleared, generation restarts
        assert_eq!(table.generation, 1);
        assert_eq!(
            table.get_or_insert(11, 2),
            2,
            "entry from before the wrap is visible"
        );
        // a sampler whose counter wraps mid-run still matches the reference
        let g = test_graph();
        let sampler = NeighborSampler::new(vec![6, 4], 5);
        let seeds: Vec<VertexId> = (100..164).collect();
        let mut batch = MiniBatch::default();
        let mut scratch = SampleScratch::default();
        sampler.sample_into(&g, &seeds, 0, &mut batch, &mut scratch);
        scratch.remap.generation = u32::MAX - 2;
        for stream in 1..5 {
            sampler.sample_into(&g, &seeds, stream, &mut batch, &mut scratch);
            let want = reference_sample(&[6, 4], 5, &g, &seeds, stream);
            assert_same_batch(&batch, &want, &format!("stream {stream}"));
        }
        assert!(scratch.remap.generation < 10, "the counter never wrapped");
    }
}
