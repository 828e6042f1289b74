#include "storage/disk_cost_model.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "descriptor/types.h"
#include "util/random.h"

namespace qvt {
namespace {

TEST(DiskCostModelTest, IoChargesSeekPlusTransfer) {
  DiskCostModel model;
  const auto& cfg = model.config();
  EXPECT_EQ(model.ChunkIoMicros(0), cfg.seek_micros);
  EXPECT_EQ(model.ChunkIoMicros(10),
            cfg.seek_micros + 10 * cfg.transfer_micros_per_page);
}

TEST(DiskCostModelTest, CpuScalesWithDescriptors) {
  DiskCostModel model;
  EXPECT_EQ(model.ChunkCpuMicros(0), 0);
  EXPECT_EQ(model.ChunkCpuMicros(1000),
            static_cast<int64_t>(1000 * model.config().cpu_micros_per_distance));
}

TEST(DiskCostModelTest, OverlapTakesMax) {
  DiskCostModelConfig cfg;
  cfg.overlap_io_cpu = true;
  DiskCostModel overlap(cfg);
  cfg.overlap_io_cpu = false;
  DiskCostModel serial(cfg);

  const uint32_t pages = 10, descriptors = 100000;
  const int64_t io = overlap.ChunkIoMicros(pages);
  const int64_t cpu = overlap.ChunkCpuMicros(descriptors);
  EXPECT_EQ(overlap.ChunkTotalMicros(pages, descriptors), std::max(io, cpu));
  EXPECT_EQ(serial.ChunkTotalMicros(pages, descriptors), io + cpu);
}

TEST(DiskCostModelTest, CalibrationSmallSrChunkIsAboutTenMs) {
  // §5.5: "reading and processing each chunk takes only about 10
  // milliseconds" for SR chunks of 1-2.5k descriptors.
  DiskCostModel model;
  const uint32_t descriptors = 1719;  // paper's MEDIUM SR chunk
  const uint32_t pages = static_cast<uint32_t>(
      PagesForBytes(descriptors * DescriptorRecordBytes(kDescriptorDim)));
  const double ms =
      static_cast<double>(model.ChunkTotalMicros(pages, descriptors)) / 1000.0;
  EXPECT_GT(ms, 5.0);
  EXPECT_LT(ms, 20.0);
}

TEST(DiskCostModelTest, CalibrationGiantBagChunkIsAboutTwoSeconds) {
  // §5.5: "processing the largest chunk of the BAG algorithm took as much
  // as 1.8 seconds" (~1M descriptors).
  DiskCostModel model;
  const uint32_t descriptors = 1000000;
  const uint32_t pages = static_cast<uint32_t>(
      PagesForBytes(static_cast<uint64_t>(descriptors) *
                    DescriptorRecordBytes(kDescriptorDim)));
  const double seconds =
      static_cast<double>(model.ChunkTotalMicros(pages, descriptors)) * 1e-6;
  EXPECT_GT(seconds, 1.2);
  EXPECT_LT(seconds, 3.0);
}

TEST(DiskCostModelTest, CalibrationIndexScanTensOfMs) {
  // §5.5: "reading the chunk index takes about 50 milliseconds on average"
  // for 1,871-4,720 chunks.
  DiskCostModel model;
  const double ms_small =
      static_cast<double>(model.IndexScanMicros(4720)) / 1000.0;
  const double ms_large =
      static_cast<double>(model.IndexScanMicros(1871)) / 1000.0;
  EXPECT_GT(ms_small, 20.0);
  EXPECT_LT(ms_small, 100.0);
  EXPECT_GT(ms_large, 10.0);
  EXPECT_LT(ms_large, ms_small);
}

TEST(DiskCostModelTest, PagesForBytesRoundsUp) {
  EXPECT_EQ(PagesForBytes(0), 0u);
  EXPECT_EQ(PagesForBytes(1), 1u);
  EXPECT_EQ(PagesForBytes(kPageSize), 1u);
  EXPECT_EQ(PagesForBytes(kPageSize + 1), 2u);
}

// ---------------------------------------------------------------------------
// OverlappedScanTimeline (the prefetch pipeline's modeled wall clock)
// ---------------------------------------------------------------------------

TEST(OverlappedScanTimelineTest, DepthZeroIsTheSerialSum) {
  // With within-chunk overlap (the cost model's default) a chunk read from
  // disk charges max(io, cpu), a cache hit cpu alone — ChunkTotalMicros.
  OverlappedScanTimeline overlapped(0, /*start_micros=*/100);
  overlapped.AddChunk(10, 5);
  overlapped.AddChunk(20, 7);
  overlapped.AddChunk(0, 3);  // cache hit
  EXPECT_EQ(overlapped.ElapsedMicros(), 100 + 10 + 20 + 3);
  // Without it every chunk charges io + cpu strictly in sequence.
  OverlappedScanTimeline sequential(0, 100, /*overlap_io_cpu=*/false);
  sequential.AddChunk(10, 5);
  sequential.AddChunk(20, 7);
  sequential.AddChunk(0, 3);
  EXPECT_EQ(sequential.ElapsedMicros(), 100 + (10 + 5) + (20 + 7) + 3);
  // Both are exactly the serial charge of the same chunks.
  DiskCostModelConfig config;
  for (const bool overlap : {true, false}) {
    config.overlap_io_cpu = overlap;
    const DiskCostModel model(config);
    OverlappedScanTimeline timeline(0, 0, overlap);
    int64_t serial = 0;
    for (const uint32_t pages : {1u, 3u, 40u}) {
      const int64_t io = model.ChunkIoMicros(pages);
      const int64_t cpu = model.ChunkCpuMicros(pages * 300);
      timeline.AddChunk(io, cpu);
      serial += model.ChunkTotalMicros(pages, pages * 300);
    }
    EXPECT_EQ(timeline.ElapsedMicros(), serial) << "overlap " << overlap;
  }
}

TEST(OverlappedScanTimelineTest, DepthOnePipelinesBalancedChunks) {
  // io == cpu == 10 without within-chunk overlap: a one-deep window is
  // already a perfect pipeline — after the first read, every scan hides
  // exactly one read.
  OverlappedScanTimeline timeline(1, 0, /*overlap_io_cpu=*/false);
  for (int i = 0; i < 3; ++i) timeline.AddChunk(10, 10);
  EXPECT_EQ(timeline.ElapsedMicros(), 10 + 3 * 10);
  OverlappedScanTimeline serial(0, 0, /*overlap_io_cpu=*/false);
  for (int i = 0; i < 3; ++i) serial.AddChunk(10, 10);
  EXPECT_EQ(serial.ElapsedMicros(), 3 * 20);
  // With it, each scan streams behind its own read: the disk never idles.
  OverlappedScanTimeline streamed(1);
  for (int i = 0; i < 3; ++i) streamed.AddChunk(10, 10);
  EXPECT_EQ(streamed.ElapsedMicros(), 3 * 10);
}

TEST(OverlappedScanTimelineTest, IoBoundPipelineIsDiskLimited) {
  // io 10, cpu 2: the disk is the bottleneck, so elapsed approaches
  // sum(io) + the last scan — or sum(io) alone when the last scan overlaps
  // its own read.
  OverlappedScanTimeline timeline(1, 0, /*overlap_io_cpu=*/false);
  for (int i = 0; i < 3; ++i) timeline.AddChunk(10, 2);
  EXPECT_EQ(timeline.ElapsedMicros(), 3 * 10 + 2);
  OverlappedScanTimeline streamed(1);
  for (int i = 0; i < 3; ++i) streamed.AddChunk(10, 2);
  EXPECT_EQ(streamed.ElapsedMicros(), 3 * 10);
}

TEST(OverlappedScanTimelineTest, CpuBoundPipelineIsScanLimited) {
  // io 2, cpu 10 at depth 2: after the first arrival the scan never waits,
  // and with within-chunk overlap it does not wait for the first either.
  OverlappedScanTimeline timeline(2, 0, /*overlap_io_cpu=*/false);
  for (int i = 0; i < 3; ++i) timeline.AddChunk(2, 10);
  EXPECT_EQ(timeline.ElapsedMicros(), 2 + 3 * 10);
  OverlappedScanTimeline streamed(2);
  for (int i = 0; i < 3; ++i) streamed.AddChunk(2, 10);
  EXPECT_EQ(streamed.ElapsedMicros(), 3 * 10);
}

TEST(OverlappedScanTimelineTest, CacheHitsOccupyNoDiskTime) {
  OverlappedScanTimeline timeline(2, 0, /*overlap_io_cpu=*/false);
  timeline.AddChunk(0, 5);   // hit: scan starts immediately
  timeline.AddChunk(10, 5);  // its read overlapped the first scan
  timeline.AddChunk(0, 5);   // hit: ready the moment the scan frees up
  EXPECT_EQ(timeline.ElapsedMicros(), 20);
  // Streaming the miss behind its read: it ends when its last byte lands.
  OverlappedScanTimeline streamed(2);
  streamed.AddChunk(0, 5);
  streamed.AddChunk(10, 5);
  streamed.AddChunk(0, 5);
  EXPECT_EQ(streamed.ElapsedMicros(), 15);
}

TEST(OverlappedScanTimelineTest, DeeperWindowsNeverSlowTheScanDown) {
  const int64_t io[] = {9, 3, 14, 6, 2, 11, 5, 8};
  const int64_t cpu[] = {4, 12, 2, 9, 7, 3, 10, 6};
  int64_t previous = 0;
  for (size_t depth = 0; depth <= 5; ++depth) {
    OverlappedScanTimeline timeline(depth, 50);
    for (size_t i = 0; i < 8; ++i) timeline.AddChunk(io[i], cpu[i]);
    if (depth > 0) {
      EXPECT_LE(timeline.ElapsedMicros(), previous) << "depth " << depth;
    }
    previous = timeline.ElapsedMicros();
  }
  // And no depth can beat the disk or the CPU running flat out.
  int64_t io_sum = 0, cpu_sum = 0;
  for (size_t i = 0; i < 8; ++i) {
    io_sum += io[i];
    cpu_sum += cpu[i];
  }
  OverlappedScanTimeline deep(64, 50);
  for (size_t i = 0; i < 8; ++i) deep.AddChunk(io[i], cpu[i]);
  EXPECT_GE(deep.ElapsedMicros(), 50 + std::max(io_sum, cpu_sum));
}

// One model clock: over random (io, cpu, hit) sequences, the depth-0
// timeline is exactly the serial charge the searcher sums (ChunkTotalMicros
// on a miss, ChunkCpuMicros on a hit) under both overlap settings, and no
// depth ever reads above it or above a shallower depth.
TEST(OverlappedScanTimelineTest, RandomSequencesNeverExceedTheSerialCharge) {
  Rng rng(20051);
  DiskCostModelConfig config;
  for (int trial = 0; trial < 200; ++trial) {
    config.overlap_io_cpu = trial % 2 == 0;
    const DiskCostModel model(config);
    const size_t chunks = 1 + rng.Uniform(40);
    const int64_t start = static_cast<int64_t>(rng.Uniform(20000));
    std::vector<std::pair<int64_t, int64_t>> charges;
    int64_t serial = start;
    for (size_t c = 0; c < chunks; ++c) {
      const auto pages = static_cast<uint32_t>(1 + rng.Uniform(60));
      const auto rows = static_cast<uint32_t>(1 + rng.Uniform(5000));
      const bool hit = rng.Uniform(4) == 0;
      const int64_t io = hit ? 0 : model.ChunkIoMicros(pages);
      const int64_t cpu = model.ChunkCpuMicros(rows);
      charges.emplace_back(io, cpu);
      serial += hit ? cpu : model.ChunkTotalMicros(pages, rows);
    }
    int64_t previous = serial;
    for (const size_t depth : {size_t{0}, size_t{1}, size_t{4}, size_t{64}}) {
      OverlappedScanTimeline timeline(depth, start, config.overlap_io_cpu);
      for (const auto& [io, cpu] : charges) timeline.AddChunk(io, cpu);
      const int64_t elapsed = timeline.ElapsedMicros();
      SCOPED_TRACE("trial " + std::to_string(trial) + " depth " +
                   std::to_string(depth));
      if (depth == 0) {
        EXPECT_EQ(elapsed, serial);
      }
      EXPECT_LE(elapsed, serial);
      EXPECT_LE(elapsed, previous);
      previous = elapsed;
    }
  }
}

}  // namespace
}  // namespace qvt
