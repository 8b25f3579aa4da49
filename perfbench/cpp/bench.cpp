#include <sys/mman.h>

#include <algorithm>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "core/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace perfbench {

Tracer::Tracer(int nranks) : slots_(static_cast<std::size_t>(nranks) + 1) {
  intern("sample");
}

std::uint32_t Tracer::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::open(int slot, std::uint32_t name) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  const std::int32_t parent = s.stack.empty() ? -1 : s.stack.back();
  s.recs.push_back({name, parent, now_ns(), 0});
  const auto index = static_cast<std::int32_t>(s.recs.size() - 1);
  s.stack.push_back(index);
  return index;
}

void Tracer::close(int slot, std::int32_t index) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  s.recs[static_cast<std::size_t>(index)].end = now_ns();
  s.stack.pop_back();
}

std::vector<Tracer::Row> Tracer::table() const {
  std::vector<Row> rows(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) rows[i].name = names_[i];
  for (const Slot& slot : slots_) {
    std::vector<double> child_ms(slot.recs.size(), 0.0);
    for (const Rec& rec : slot.recs) {
      if (rec.parent >= 0) {
        child_ms[static_cast<std::size_t>(rec.parent)] +=
            static_cast<double>(rec.end - rec.begin) * 1e-6;
      }
    }
    for (std::size_t i = 0; i < slot.recs.size(); ++i) {
      const Rec& rec = slot.recs[i];
      const double ms = static_cast<double>(rec.end - rec.begin) * 1e-6;
      Row& row = rows[rec.name];
      row.calls += 1;
      row.total_ms += ms;
      row.self_ms += ms - child_ms[i];
    }
  }
  return rows;
}

double Tracer::unattributed_frac() const {
  const Row sample = table()[0];
  return sample.total_ms > 0.0 ? sample.self_ms / sample.total_ms : 0.0;
}

void Tracer::write_spans(const std::string& path) const {
  std::ofstream out(path);
  out << "slot\tname\tbegin_ns\tend_ns\tparent\n";
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slot >= kWrittenRanks && slot + 1 != slots_.size()) continue;
    for (const Rec& rec : slots_[slot].recs) {
      out << slot << '\t' << names_[rec.name] << '\t' << rec.begin << '\t'
          << rec.end << '\t' << rec.parent << '\n';
    }
  }
}

namespace {

double counter(const std::string& metric) {
  double total = 0;
  for (const auto& row : cid::obs::MetricsRegistry::global().counters()) {
    if (row.key.metric == metric) total += static_cast<double>(row.value);
  }
  return total;
}

}  // namespace

void obs_start(bool on) {
  cid::obs::clear();
  cid::obs::set_enabled(on);
}

ObsCounts obs_finish() {
  ObsCounts counts;
  counts.match_messages = counter("mpi.match.messages");
  counts.deliver_messages = counter("rt.deliver.messages");
  counts.put_messages = counter("shmem.put.messages");
  counts.put_bytes = counter("shmem.put.bytes");
  for (const auto& row : cid::obs::MetricsRegistry::global().histograms()) {
    if (row.key.metric == "mpi.pack.wall_ns") {
      counts.pack_ns += row.histogram.sum();
    }
  }
  cid::obs::set_enabled(false);
  cid::obs::clear();
  return counts;
}

void record_counts(const ObsCounts& counts, double samples, Outcome& out) {
  out.layer["mpi.match.messages"] = counts.match_messages / samples;
  out.layer["rt.deliver.messages"] = counts.deliver_messages / samples;
  out.layer["shmem.put.messages"] = counts.put_messages / samples;
  out.layer["shmem.put.bytes"] = counts.put_bytes / samples;
  out.layer["mpi.pack.wall_ns"] = counts.pack_ns / samples;
}

void CoreTotals::add_mine() {
  const cid::core::CommStats& stats = cid::core::comm_stats();
  msgs += stats.total_messages();
  bytes += stats.total_bytes();
  waitalls += stats.waitalls;
  created += stats.datatypes_created;
  hits += stats.datatype_cache_hits;
}

void CoreTotals::record(double samples, Outcome& out) const {
  out.layer["core.msgs_per_step"] = static_cast<double>(msgs) / samples;
  out.layer["core.bytes_per_step"] = static_cast<double>(bytes) / samples;
  out.layer["core.waitalls_per_step"] =
      static_cast<double>(waitalls) / samples;
  const double requested = static_cast<double>(created + hits);
  out.layer["core.datatype_cache_hit_ratio"] =
      requested > 0 ? static_cast<double>(hits) / requested : 0.0;
}

namespace {

double compute_job_ms() {
  // A fresh mapping each time, as every rt::run maps fresh fiber stacks:
  // the job pays for page faults as the program does, and does not depend
  // on the state the workload left the heap in.
  constexpr std::uint32_t kKeys = 1u << 16, kSlots = 1u << 16;
  constexpr std::size_t kBytes = kKeys * sizeof(std::uint32_t) +
                                 kSlots * sizeof(std::uint64_t);
  const std::int64_t start = now_ns();
  void* map = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) return 0.0;
  auto* keys = static_cast<std::uint32_t*>(map);
  auto* slots = reinterpret_cast<std::uint64_t*>(keys + kKeys);
  std::uint64_t x = 12345;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    keys[i] = static_cast<std::uint32_t>(x >> 33);
  }
  std::sort(keys, keys + kKeys);
  // Open addressing: the key in the high half, a running sum in the low.
  for (std::uint32_t i = 0; i < (1u << 15); ++i) {
    const std::uint64_t key = keys[(i * 7919u) & (kKeys - 1)] | 1u;
    std::uint32_t h = static_cast<std::uint32_t>(mix(key)) & (kSlots - 1);
    while (slots[h] != 0 && (slots[h] >> 32) != key) {
      h = (h + 1) & (kSlots - 1);
    }
    slots[h] = (key << 32) | ((slots[h] + i) & 0xffffffffu);
  }
  volatile std::uint64_t sink = slots[keys[77] & (kSlots - 1)];
  (void)sink;
  ::munmap(map, kBytes);
  return static_cast<double>(now_ns() - start) * 1e-6;
}

double threads_job_ms() {
  const std::int64_t start = now_ns();
  for (int i = 0; i < 32; ++i) {
    std::thread thread([] {
      volatile char page[4096];
      page[0] = 1;
      (void)page;
    });
    thread.join();
  }
  return static_cast<double>(now_ns() - start) * 1e-6;
}

}  // namespace

double ref_job_ms(RefJob job, int threads) {
  std::atomic<int> waiting{threads};
  auto median_time = [&] {
    waiting.fetch_sub(1);
    while (waiting.load() > 0) {
    }
    std::vector<double> ms(20);
    for (double& t : ms) {
      t = job == RefJob::kCompute ? compute_job_ms() : threads_job_ms();
      if (t <= 0.0) return 0.0;
    }
    return median(ms);
  };
  std::vector<double> times(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> others;
  for (int i = 1; i < threads; ++i) {
    others.emplace_back([&, i] { times[i] = median_time(); });
  }
  times[0] = median_time();
  for (std::thread& thread : others) thread.join();
  double sum = 0.0;
  for (double t : times) {
    if (t <= 0.0) return 0.0;
    sum += t;
  }
  return sum / threads;
}

double Outcome::adjust(double t, std::size_t gauged) const {
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = gauged > 0 ? gauged - 1 : 0;
       i <= gauged && i < gauge_ms.size(); ++i) {
    if (gauge_ms[i] > 0.0) {
      sum += gauge_ms[i];
      n += 1;
    }
  }
  return n == 0 ? t : t * kRefJobMs[static_cast<int>(ref_job)] * n / sum;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
