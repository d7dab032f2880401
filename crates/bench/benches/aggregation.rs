//! Aggregation kernels: the CPU kernel on f32 rows and on an int8 wire
//! batch (packed rows decoded inside the aggregation, as layer 0 reads
//! an accelerator batch) vs. the FPGA scatter-gather simulator (the
//! §IV-C ablation: source-sorted reuse vs naive edge streaming shows up
//! as the DRAM-read counter, reported at the end).

use criterion::{criterion_group, criterion_main, Criterion};
use hyscale_device::fpga::kernel::{simulate_aggregation, FpgaKernelConfig};
use hyscale_gnn::aggregate::{aggregate, aggregate_gcn, aggregate_mean, GcnCoefficients};
use hyscale_graph::generator::{rmat, RmatConfig};
use hyscale_sampler::NeighborSampler;
use hyscale_tensor::init::randn;
use hyscale_tensor::quant::{QuantizedMatrix, WireRows};
use std::hint::black_box;

fn bench_aggregation(c: &mut Criterion) {
    let graph = rmat(
        RmatConfig {
            scale: 13,
            avg_degree: 16,
            ..Default::default()
        },
        5,
    )
    .symmetrize();
    let sampler = NeighborSampler::new(vec![25, 10], 1);
    let seeds: Vec<u32> = (0..256u32).collect();
    let mb = sampler.sample(&graph, &seeds, 0);
    let block = &mb.blocks[0];
    let h = randn(block.num_src, 128, 2);
    let coef = GcnCoefficients::from_block(block);
    let int8 = QuantizedMatrix::quantize_int8(&h);

    let mut g = c.benchmark_group("aggregation");
    g.sample_size(10);
    g.bench_function("cpu_gcn", |b| {
        b.iter(|| black_box(aggregate_gcn(block, &h, &coef)))
    });
    g.bench_function("cpu_mean", |b| {
        b.iter(|| black_box(aggregate_mean(block, &h)))
    });
    g.bench_function("cpu_gcn_int8_wire", |b| {
        b.iter(|| black_box(aggregate(block, WireRows::Int8(&int8), Some(&coef))))
    });
    g.bench_function("cpu_mean_int8_wire", |b| {
        b.iter(|| black_box(aggregate(block, WireRows::Int8(&int8), None)))
    });
    let cfg = FpgaKernelConfig::default();
    g.bench_function("fpga_sim_gcn", |b| {
        b.iter(|| {
            black_box(simulate_aggregation(
                block,
                &h,
                &coef.edge,
                &coef.self_loop,
                &cfg,
                false,
            ))
        })
    });
    g.finish();

    // report the data-reuse win once (not a timed measurement)
    let run = simulate_aggregation(block, &h, &coef.edge, &coef.self_loop, &cfg, false);
    let naive_bytes = (block.num_edges() * 128 * 4) as u64;
    eprintln!(
        "FPGA duplicator DRAM reads: {} bytes vs naive edge streaming {} bytes ({:.2}x reuse)",
        run.dram_read_bytes,
        naive_bytes,
        naive_bytes as f64 / run.dram_read_bytes as f64
    );
}

criterion_group!(benches, bench_aggregation);
criterion_main!(benches);
