#include "bench_common.hpp"

#include <omp.h>

#include <fstream>
#include <iomanip>
#include <iostream>

#include "cgdnn/core/buildinfo.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/dataset.hpp"

namespace cgdnn::bench {

namespace {

using parallel::LayerPhase;

std::string ThreadCol(int t) { return std::to_string(t) + "T"; }

/// p50 of (row, threads); 0 when that cell was not measured.
double P50Us(const SweepRow& row, int threads) {
  const auto it = row.by_threads.find(threads);
  return it == row.by_threads.end() ? 0.0 : it->second.time.p50_us();
}

/// Every thread count this host offers: 1, 2, ..., nproc.
std::vector<int> HostThreadCounts() {
  std::vector<int> threads;
  for (int t = 1; t <= std::max(1, omp_get_num_procs()); ++t) {
    threads.push_back(t);
  }
  return threads;
}

FigureContext Prepare(const proto::NetParameter& param,
                      const std::string& dataset, index_t batch,
                      int iterations, const parallel::ParallelConfig& base) {
  FigureContext ctx;
  ctx.dataset = dataset;
  ctx.batch = batch;
  SeedGlobalRng(1);
  data::ClearDatasetCache();
  Net<float> net(param, Phase::kTrain);
  ctx.sweep = MeasureThreadSweep(net, HostThreadCounts(), /*warmup=*/1,
                                 iterations, base);
  return ctx;
}

void PrintHeader(const FigureContext& ctx, const std::string& title,
                 const std::string& what) {
  std::cout << "=== " << title << " ===\n"
            << ctx.dataset << ", batch " << ctx.batch << ". " << what
            << "\nMeasured on this host: p50 of "
            << ctx.sweep.iteration.begin()->second.count()
            << " timed iterations per thread count (the BENCH json carries "
               "min/p50/max).\n\n";
}

}  // namespace

double FigureContext::Speedup(const std::string& layer, LayerPhase phase,
                              int threads) const {
  const SweepRow* row = sweep.Find(layer, phase);
  if (row == nullptr) return 0.0;
  const double t_us = P50Us(*row, threads);
  return t_us > 0 ? P50Us(*row, 1) / t_us : 0.0;
}

FigureContext PrepareMnist(index_t batch, int iterations,
                           const parallel::ParallelConfig& base) {
  models::ModelOptions opts;
  opts.batch_size = batch;
  opts.num_samples = std::max<index_t>(batch, 128);
  opts.with_accuracy = false;
  return Prepare(models::LeNet(opts), "MNIST (LeNet)", batch, iterations,
                 base);
}

FigureContext PrepareCifar(index_t batch, int iterations) {
  models::ModelOptions opts;
  opts.batch_size = batch;
  opts.num_samples = std::max<index_t>(batch, 128);
  opts.with_accuracy = false;
  return Prepare(models::Cifar10Quick(opts), "CIFAR-10 (quick)", batch,
                 iterations, {});
}

void PrintLayerTimeFigure(const FigureContext& ctx, const std::string& title) {
  PrintHeader(ctx, title,
              "Absolute per-layer execution time (microseconds) and share "
              "of one 1-thread training iteration.");
  const std::vector<int>& threads = ctx.sweep.threads;
  double serial_total = 0;
  for (const SweepRow& row : ctx.sweep.rows) serial_total += P50Us(row, 1);
  auto& report = BenchReport::Get();
  for (const auto phase : {LayerPhase::kForward, LayerPhase::kBackward}) {
    const std::string phase_name = parallel::LayerPhaseName(phase);
    const std::string section = phase_name + "_us";
    std::cout << phase_name << " pass:\n"
              << std::left << std::setw(10) << "layer";
    for (const int t : threads) {
      std::cout << std::right << std::setw(11) << ThreadCol(t);
    }
    std::cout << std::setw(9) << "share1T" << "\n";
    for (const SweepRow& row : ctx.sweep.rows) {
      if (row.phase != phase) continue;
      std::cout << std::left << std::setw(10) << row.layer << std::right
                << std::fixed << std::setprecision(0);
      for (const int t : threads) {
        report.AddSpread(section, row.layer + "@" + ThreadCol(t),
                         row.by_threads.at(t).time);
        std::cout << std::setw(11) << P50Us(row, t);
      }
      const double share = 100.0 * P50Us(row, 1) / serial_total;
      report.Add("share_pct", row.layer + "." + phase_name, "1T", share);
      std::cout << std::setprecision(1) << std::setw(8) << share << "%\n";
    }
  }
  std::cout << "\n";
}

void PrintScalabilityFigure(const FigureContext& ctx,
                            const std::string& title) {
  PrintHeader(ctx, title, "Per-layer speedup over one thread.");
  const std::vector<int>& threads = ctx.sweep.threads;
  auto& report = BenchReport::Get();
  for (const auto phase : {LayerPhase::kForward, LayerPhase::kBackward}) {
    const std::string phase_name = parallel::LayerPhaseName(phase);
    std::cout << phase_name << " pass:\n"
              << std::left << std::setw(10) << "layer";
    for (const int t : threads) {
      if (t > 1) std::cout << std::right << std::setw(9) << ThreadCol(t);
    }
    std::cout << "\n";
    for (const SweepRow& row : ctx.sweep.rows) {
      if (row.phase != phase) continue;
      std::cout << std::left << std::setw(10) << row.layer << std::right
                << std::fixed << std::setprecision(2);
      for (const int t : threads) {
        // The json records the measured times; a speedup is a ratio of two
        // of them, so it is printed but not gated a second time.
        report.AddSpread(phase_name + "_us", row.layer + "@" + ThreadCol(t),
                         row.by_threads.at(t).time);
        if (t > 1) {
          std::cout << std::setw(9) << ctx.Speedup(row.layer, phase, t);
        }
      }
      std::cout << "\n";
    }
  }
  std::cout << "\n";
}

void PrintOverallFigure(const FigureContext& ctx, const std::string& title,
                        const PaperOverall& paper) {
  PrintHeader(ctx, title,
              "Whole training iteration (forward + backward) per thread "
              "count.");
  const profile::PhaseStats& serial = ctx.sweep.iteration.at(1);
  std::cout << std::left << std::setw(10) << "threads" << std::right
            << std::setw(12) << "min_us" << std::setw(12) << "p50_us"
            << std::setw(12) << "max_us" << std::setw(10) << "speedup"
            << "\n";
  auto& report = BenchReport::Get();
  for (const auto& [t, stats] : ctx.sweep.iteration) {
    report.AddSpread("iteration_us", ThreadCol(t), stats);
    std::cout << std::left << std::setw(10) << ThreadCol(t) << std::right
              << std::fixed << std::setprecision(0) << std::setw(12)
              << stats.min_us() << std::setw(12) << stats.p50_us()
              << std::setw(12) << stats.max_us() << std::setprecision(2)
              << std::setw(10) << serial.p50_us() / stats.p50_us() << "\n";
  }

  std::cout << "\nreference speedups reported by the paper (16-core Xeon "
               "E5-2667v2, Tesla K40; not measured here):\n";
  for (const auto& [version, value] :
       {std::pair<const char*, double>{"OpenMP-8", paper.omp8},
        {"OpenMP-16", paper.omp16},
        {"plain-GPU", paper.plain_gpu},
        {"cuDNN-GPU", paper.cudnn_gpu}}) {
    report.Add("paper_speedup", version, "value", value);
    std::cout << "  " << std::left << std::setw(12) << version << std::right
              << std::setprecision(2) << value << "x\n";
  }
  std::cout << "\n";
}

BenchReport& BenchReport::Get() {
  static BenchReport report;
  return report;
}

void BenchReport::Add(const std::string& section, const std::string& key,
                      const std::string& column, double value) {
  Row* row = nullptr;
  for (Row& r : rows_) {
    if (r.section == section && r.key == key) {
      row = &r;
      break;
    }
  }
  if (row == nullptr) {
    rows_.push_back({section, key, {}});
    row = &rows_.back();
  }
  for (auto& [col, val] : row->values) {
    if (col == column) {
      val = value;
      return;
    }
  }
  row->values.emplace_back(column, value);
}

void BenchReport::AddSpread(const std::string& section, const std::string& key,
                            const profile::PhaseStats& stats) {
  Add(section, key, "min", stats.min_us());
  Add(section, key, "p50", stats.p50_us());
  Add(section, key, "max", stats.max_us());
}

bool BenchReport::Write(const std::string& bench_name) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "note: cannot write " << path << "\n";
    rows_.clear();
    return false;
  }
  out << "{\n  \"bench\": \"" << bench_name << "\",\n  \"meta\": ";
  buildinfo::WriteMetaJson(out);
  out << ",\n  \"rows\": [";
  out << std::setprecision(15);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    out << (i ? ",\n" : "\n") << "    {\"section\": \"" << r.section
        << "\", \"key\": \"" << r.key << "\", \"values\": {";
    for (std::size_t j = 0; j < r.values.size(); ++j) {
      out << (j ? ", " : "") << "\"" << r.values[j].first
          << "\": " << r.values[j].second;
    }
    out << "}}";
  }
  out << "\n  ]\n}\n";
  rows_.clear();
  std::cerr << "report written to " << path << "\n";
  return true;
}

}  // namespace cgdnn::bench
