// Union filesystem micro-benchmarks: the copy-on-write layer is on every
// guest I/O path, and archive serialization bounds save-cycle cost.
#include <benchmark/benchmark.h>

#include "src/unionfs/disk_image.h"
#include "src/unionfs/serialize.h"

namespace nymix {
namespace {

std::shared_ptr<const BaseImage> Image() {
  return BaseImage::CreateDistribution("bench", 1, 16 * kMiB);
}

void BM_UnionReadThroughLayers(benchmark::State& state) {
  VmDisk disk(Image(), nullptr, 64 * kMiB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.fs().ReadFile("/etc/os-release"));
  }
}
BENCHMARK(BM_UnionReadThroughLayers);

void BM_UnionWriteCow(benchmark::State& state) {
  VmDisk disk(Image(), nullptr, 1024 * kMiB);
  uint64_t i = 0;
  for (auto _ : state) {
    uint64_t index = i++;
    benchmark::DoNotOptimize(disk.WriteFile("/cache/f" + std::to_string(index % 1000),
                                            Blob::Synthetic(8192, index)));
  }
}
BENCHMARK(BM_UnionWriteCow);

void BM_WhiteoutUnlink(benchmark::State& state) {
  VmDisk disk(Image(), nullptr, 64 * kMiB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.fs().Unlink("/etc/hostname"));
    disk.DiscardWritable();
  }
}
BENCHMARK(BM_WhiteoutUnlink);

void BM_SerializeWritableLayer(benchmark::State& state) {
  MemFs fs;
  for (int64_t i = 0; i < state.range(0); ++i) {
    NYMIX_CHECK(fs.WriteFile("/cache/f" + std::to_string(i),
                             Blob::Synthetic(64 * kKiB, static_cast<uint64_t>(i)))
                    .ok());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeMemFs(fs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SerializeWritableLayer)->Arg(100)->Arg(1000);

void BM_MerkleVerifyImageBlock(benchmark::State& state) {
  auto image = Image();
  uint64_t block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(image->VerifyBlock(block++ % image->block_count()));
  }
}
BENCHMARK(BM_MerkleVerifyImageBlock);

}  // namespace
}  // namespace nymix

BENCHMARK_MAIN();
