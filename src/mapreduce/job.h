#ifndef TKLUS_MAPREDUCE_JOB_H_
#define TKLUS_MAPREDUCE_JOB_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/mutex.h"
#include "common/status.h"
#include "mapreduce/counters.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"

namespace tklus {

// Process-wide task-attempt counters aggregated over every MapReduceJob
// instantiation (per-job numbers stay on counters()). Non-template so all
// K/V instantiations feed the same families.
struct MapReduceMetrics {
  Counter* task_attempts;
  Counter* task_retries;
  Counter* task_failures;

  static const MapReduceMetrics& Get() {
    static const MapReduceMetrics* metrics = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      auto* m = new MapReduceMetrics();
      m->task_attempts = reg.GetCounter(
          "tklus_mapreduce_task_attempts_total",
          "Map and reduce task attempts started (first tries + retries).");
      m->task_retries = reg.GetCounter(
          "tklus_mapreduce_task_retries_total",
          "Task attempts re-run after a failed earlier attempt.");
      m->task_failures = reg.GetCounter(
          "tklus_mapreduce_task_failures_total",
          "Tasks that exhausted every permitted attempt.");
      return m;
    }();
    return *metrics;
  }
};

// An in-process multi-threaded MapReduce framework modelling the Hadoop
// pipeline the paper builds its index with (§IV-B.2): input splits ->
// parallel map -> (optional per-worker combine) -> partition -> sort-by-key
// shuffle -> parallel reduce. Worker threads play the role of cluster
// nodes; Options::num_workers = 3 reproduces the Table III cluster.
//
// K must be hashable via the Partitioner (default std::hash) and totally
// ordered via operator< (the shuffle sorts each partition by key — the
// property the paper relies on for contiguous geohash-prefix placement).
//
// Fault tolerance mirrors Hadoop's task-attempt model: each map split and
// each reduce partition is a *task* executed in an attempt loop. A task
// attempt fails when the user function throws or an attached FaultInjector
// fires (sites faults::kMapTask / faults::kReduceTask); its partial output
// is discarded and the task re-executes, up to Options::max_task_attempts
// total tries. Only then does the whole job fail, cleanly, with the task's
// last error. Retries require V (and the inputs) to be copyable, since a
// reduce attempt that may be retried cannot consume its values
// destructively. Counters (counter_names::*) record retried/failed tasks.
template <typename Input, typename K, typename V, typename OutK = K,
          typename OutV = V>
class MapReduceJob {
 public:
  using Emit = std::function<void(K, V)>;
  using OutEmit = std::function<void(OutK, OutV)>;
  // Map(input, emit): Alg. 2's map function.
  using MapFn = std::function<void(const Input&, const Emit&)>;
  // Reduce(key, values, emit): Alg. 3's reduce function. `values` is
  // mutable so reducers can sort/steal from it.
  using ReduceFn =
      std::function<void(const K&, std::vector<V>&, const OutEmit&)>;
  // Optional combiner with reducer signature but emitting (K, V).
  using CombineFn = std::function<void(const K&, std::vector<V>&, const Emit&)>;
  // partition(key, num_partitions) -> [0, num_partitions).
  using Partitioner = std::function<int(const K&, int)>;

  struct Options {
    int num_workers = 3;
    int num_reduce_tasks = 8;
    // Inputs per map task (split granularity).
    size_t split_size = 4096;
    // Total tries per task before the job fails (Hadoop's
    // mapreduce.map.maxattempts, default 4). <= 1 disables retry.
    int max_task_attempts = 4;
    // Optional shared fault injector consulted once per task attempt.
    FaultInjector* fault_injector = nullptr;
  };

  struct Stats {
    double map_seconds = 0;
    double shuffle_seconds = 0;
    double reduce_seconds = 0;
    uint64_t map_input_records = 0;
    uint64_t map_output_records = 0;
    uint64_t combine_output_records = 0;
    uint64_t reduce_groups = 0;
    uint64_t output_records = 0;
    double TotalSeconds() const {
      return map_seconds + shuffle_seconds + reduce_seconds;
    }
  };

  MapReduceJob(MapFn map_fn, ReduceFn reduce_fn, Options options = Options{})
      : map_fn_(std::move(map_fn)),
        reduce_fn_(std::move(reduce_fn)),
        options_(options) {
    if (options_.num_workers < 1) options_.num_workers = 1;
    if (options_.num_reduce_tasks < 1) options_.num_reduce_tasks = 1;
    if (options_.split_size == 0) options_.split_size = 1;
    // Keys without a std::hash specialization (e.g. composite pairs) must
    // provide a partitioner via set_partitioner before Run.
    if constexpr (requires(const K& k) { std::hash<K>{}(k); }) {
      partitioner_ = [](const K& key, int n) {
        return static_cast<int>(std::hash<K>{}(key) %
                                static_cast<size_t>(n));
      };
    }
  }

  void set_combiner(CombineFn combiner) { combiner_ = std::move(combiner); }
  void set_partitioner(Partitioner partitioner) {
    partitioner_ = std::move(partitioner);
  }

  // Runs the job. Returns one output vector per reduce partition, each
  // sorted by key (stable within equal keys in emit order).
  Result<std::vector<std::vector<std::pair<OutK, OutV>>>> Run(
      const std::vector<Input>& inputs) {
    if (!partitioner_) {
      return Status::InvalidArgument(
          "key type has no std::hash; call set_partitioner first");
    }
    const int R = options_.num_reduce_tasks;
    const int W = options_.num_workers;
    const int max_attempts = std::max(1, options_.max_task_attempts);
    stats_ = Stats{};
    Stopwatch phase;

    // Job abort machinery: the first task to exhaust its attempts records
    // its error and flips `abort`; every worker then drains out.
    std::atomic<bool> abort{false};
    Status first_error;
    Mutex error_mu;
    const auto record_error = [&](Status status) {
      MutexLock lock(&error_mu);
      if (first_error.ok()) first_error = std::move(status);
      abort.store(true, std::memory_order_relaxed);
    };

    // ---- Map phase: workers pull splits (= map tasks). A task appends its
    // emits to the worker's partitions; a retry first erases what the
    // failed attempt appended, and a task that exhausts its attempts
    // aborts the job, so a failed attempt leaves no partial output behind.
    std::vector<std::vector<std::vector<std::pair<K, V>>>> worker_parts(
        W, std::vector<std::vector<std::pair<K, V>>>(R));
    const size_t num_splits =
        (inputs.size() + options_.split_size - 1) / options_.split_size;
    std::atomic<size_t> next_split{0};
    std::atomic<uint64_t> map_in{0}, map_out{0};
    {
      RunOnWorkers(W, [&](int w) {
        auto& parts = worker_parts[w];
        // Where the current task's emits start in each partition.
        std::vector<size_t> task_start(R);
        const Emit emit = [&](K key, V value) {
          const int p = partitioner_(key, R);
          parts[p].emplace_back(std::move(key), std::move(value));
        };
        while (!abort.load(std::memory_order_relaxed)) {
          const size_t split = next_split.fetch_add(1);
          if (split >= num_splits) break;
          const size_t begin = split * options_.split_size;
          const size_t end =
              std::min(inputs.size(), begin + options_.split_size);
          for (int p = 0; p < R; ++p) task_start[p] = parts[p].size();
          bool done = false;
          for (int attempt = 1; attempt <= max_attempts; ++attempt) {
            MapReduceMetrics::Get().task_attempts->Increment();
            if (attempt > 1) {
              counters_.Increment(counter_names::kMapTaskRetries);
              MapReduceMetrics::Get().task_retries->Increment();
            }
            // Drop what an earlier, failed attempt emitted.
            for (int p = 0; p < R; ++p) {
              parts[p].erase(parts[p].begin() + task_start[p], parts[p].end());
            }
            Status status = RunMapAttempt(inputs, begin, end, split, emit);
            if (status.ok()) {
              done = true;
              break;
            }
            if (attempt == max_attempts) {
              counters_.Increment(counter_names::kTasksFailed);
              MapReduceMetrics::Get().task_failures->Increment();
              record_error(Status(
                  status.code(),
                  "map task " + std::to_string(split) + " failed after " +
                      std::to_string(max_attempts) + " attempts: " +
                      status.message()));
            }
          }
          if (!done) break;
          for (int p = 0; p < R; ++p) {
            map_out.fetch_add(parts[p].size() - task_start[p],
                              std::memory_order_relaxed);
          }
          map_in.fetch_add(end - begin, std::memory_order_relaxed);
        }
        if (combiner_ && !abort.load(std::memory_order_relaxed)) {
          RunCombiner(&parts);
        }
      });
    }
    if (abort.load()) return first_error;
    stats_.map_input_records = map_in.load();
    stats_.map_output_records = map_out.load();
    stats_.map_seconds = phase.ElapsedSeconds();

    // ---- Shuffle: merge worker outputs per partition and sort by key.
    phase.Restart();
    std::vector<std::vector<std::pair<K, V>>> partitions(R);
    {
      std::atomic<int> next_part{0};
      RunOnWorkers(W, [&](int) {
        while (true) {
          const int p = next_part.fetch_add(1);
          if (p >= R) break;
          size_t total = 0;
          for (int src = 0; src < W; ++src) {
            total += worker_parts[src][p].size();
          }
          auto& part = partitions[p];
          part.reserve(total);
          for (int src = 0; src < W; ++src) {
            auto& chunk = worker_parts[src][p];
            std::move(chunk.begin(), chunk.end(), std::back_inserter(part));
            chunk.clear();
            chunk.shrink_to_fit();
          }
          std::stable_sort(part.begin(), part.end(),
                           [](const auto& a, const auto& b) {
                             return a.first < b.first;
                           });
        }
      });
    }
    stats_.shuffle_seconds = phase.ElapsedSeconds();

    // ---- Reduce phase: one task per partition, with the same attempt
    // loop. A retried attempt starts from cleared output and re-copies its
    // values; only an attempt that cannot be retried (the last permitted
    // one) is allowed to move values destructively.
    phase.Restart();
    std::vector<std::vector<std::pair<OutK, OutV>>> outputs(R);
    {
      std::atomic<int> next_part{0};
      std::atomic<uint64_t> groups{0}, out_records{0};
      RunOnWorkers(W, [&](int) {
        while (!abort.load(std::memory_order_relaxed)) {
          const int p = next_part.fetch_add(1);
          if (p >= R) break;
          auto& part = partitions[p];
          auto& out = outputs[p];
          uint64_t task_groups = 0;
          bool done = false;
          for (int attempt = 1; attempt <= max_attempts; ++attempt) {
            MapReduceMetrics::Get().task_attempts->Increment();
            if (attempt > 1) {
              counters_.Increment(counter_names::kReduceTaskRetries);
              MapReduceMetrics::Get().task_retries->Increment();
            }
            out.clear();
            task_groups = 0;
            Status status = RunReduceAttempt(
                part, p, /*may_retry=*/attempt < max_attempts, &out,
                &task_groups);
            if (status.ok()) {
              done = true;
              break;
            }
            if (attempt == max_attempts) {
              counters_.Increment(counter_names::kTasksFailed);
              MapReduceMetrics::Get().task_failures->Increment();
              record_error(Status(
                  status.code(),
                  "reduce task " + std::to_string(p) + " failed after " +
                      std::to_string(max_attempts) + " attempts: " +
                      status.message()));
            }
          }
          if (!done) break;
          groups.fetch_add(task_groups, std::memory_order_relaxed);
          out_records.fetch_add(out.size(), std::memory_order_relaxed);
          part.clear();
          part.shrink_to_fit();
        }
      });
      stats_.reduce_groups = groups.load();
      stats_.output_records = out_records.load();
    }
    if (abort.load()) return first_error;
    stats_.reduce_seconds = phase.ElapsedSeconds();
    return outputs;
  }

  const Stats& stats() const { return stats_; }
  Counters& counters() { return counters_; }
  const Options& options() const { return options_; }

 private:
  // Runs fn(0), ..., fn(W - 1) concurrently and waits for all of them. The
  // calling thread runs fn(0) itself instead of idling in join, so a
  // phase starts W - 1 threads, and the caller's allocator arena (not a
  // fresh thread's) absorbs a share of the job's buffers.
  template <typename Fn>
  static void RunOnWorkers(int W, const Fn& fn) {
    std::vector<std::thread> workers;
    workers.reserve(W - 1);
    for (int w = 1; w < W; ++w) workers.emplace_back(fn, w);
    fn(0);
    for (std::thread& t : workers) t.join();
  }

  // One attempt of the map task covering inputs [begin, end). Failures
  // come from the fault injector (simulated node loss) or from the user
  // map function throwing; either way the caller discards this attempt's
  // buffered emits and decides whether to retry.
  Status RunMapAttempt(const std::vector<Input>& inputs, size_t begin,
                       size_t end, size_t split, const Emit& emit) {
    if (options_.fault_injector != nullptr) {
      TKLUS_RETURN_IF_ERROR(options_.fault_injector->MaybeFail(
          faults::kMapTask, "split " + std::to_string(split)));
    }
    try {
      for (size_t i = begin; i < end; ++i) {
        map_fn_(inputs[i], emit);
      }
    } catch (const std::exception& e) {
      return Status::Internal(std::string("map function threw: ") + e.what());
    }
    return Status::Ok();
  }

  // One attempt of the reduce task for partition `p`: group consecutive
  // equal keys and reduce each group into `out`. While the task may still
  // be retried the values are copied out of `part`, so a failed attempt
  // leaves the partition intact for the next one.
  Status RunReduceAttempt(std::vector<std::pair<K, V>>& part, int p,
                          bool may_retry,
                          std::vector<std::pair<OutK, OutV>>* out,
                          uint64_t* task_groups) {
    if (options_.fault_injector != nullptr) {
      TKLUS_RETURN_IF_ERROR(options_.fault_injector->MaybeFail(
          faults::kReduceTask, "partition " + std::to_string(p)));
    }
    const OutEmit emit = [out](OutK key, OutV value) {
      out->emplace_back(std::move(key), std::move(value));
    };
    try {
      size_t i = 0;
      std::vector<V> values;
      while (i < part.size()) {
        size_t j = i + 1;
        while (j < part.size() && !(part[i].first < part[j].first)) {
          ++j;
        }
        values.clear();
        values.reserve(j - i);
        for (size_t v = i; v < j; ++v) {
          if (may_retry) {
            values.push_back(part[v].second);
          } else {
            values.push_back(std::move(part[v].second));
          }
        }
        reduce_fn_(part[i].first, values, emit);
        ++*task_groups;
        i = j;
      }
    } catch (const std::exception& e) {
      return Status::Internal(std::string("reduce function threw: ") +
                              e.what());
    }
    return Status::Ok();
  }

  // Sort each partition buffer and collapse equal keys through the
  // combiner (per worker, mirroring Hadoop's per-map-task combine).
  void RunCombiner(std::vector<std::vector<std::pair<K, V>>>* parts) {
    uint64_t combined = 0;
    for (auto& part : *parts) {
      std::stable_sort(
          part.begin(), part.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      std::vector<std::pair<K, V>> out;
      const Emit emit = [&](K key, V value) {
        out.emplace_back(std::move(key), std::move(value));
        ++combined;
      };
      size_t i = 0;
      std::vector<V> values;
      while (i < part.size()) {
        size_t j = i + 1;
        while (j < part.size() && !(part[i].first < part[j].first)) ++j;
        values.clear();
        for (size_t v = i; v < j; ++v) {
          values.push_back(std::move(part[v].second));
        }
        combiner_(part[i].first, values, emit);
        i = j;
      }
      part = std::move(out);
    }
    MutexLock lock(&stats_combine_mu_);
    stats_.combine_output_records += combined;
  }

  MapFn map_fn_;
  ReduceFn reduce_fn_;
  CombineFn combiner_;
  Partitioner partitioner_;
  Options options_;
  // `stats_` is phase-structured: between thread barriers only the job
  // driver thread writes it, so it is not guarded as a whole.
  // `stats_combine_mu_` serializes the one field concurrent combiner
  // workers touch (combine_output_records).
  Stats stats_;
  Mutex stats_combine_mu_;
  Counters counters_;
};

}  // namespace tklus

#endif  // TKLUS_MAPREDUCE_JOB_H_
