#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "mapreduce/counters.h"
#include "mapreduce/job.h"

namespace tklus {
namespace {

// Canonical word count over string inputs.
using WordCountJob = MapReduceJob<std::string, std::string, int>;

WordCountJob::MapFn WordCountMap() {
  return [](const std::string& line, const WordCountJob::Emit& emit) {
    size_t start = 0;
    while (start < line.size()) {
      size_t end = line.find(' ', start);
      if (end == std::string::npos) end = line.size();
      if (end > start) emit(line.substr(start, end - start), 1);
      start = end + 1;
    }
  };
}

WordCountJob::ReduceFn SumReduce() {
  return [](const std::string& key, std::vector<int>& values,
            const WordCountJob::OutEmit& emit) {
    int sum = 0;
    for (const int v : values) sum += v;
    emit(key, sum);
  };
}

std::map<std::string, int> Flatten(
    const std::vector<std::vector<std::pair<std::string, int>>>& parts) {
  std::map<std::string, int> out;
  for (const auto& part : parts) {
    for (const auto& [k, v] : part) out[k] += v;
  }
  return out;
}

TEST(MapReduceTest, WordCount) {
  WordCountJob job(WordCountMap(), SumReduce());
  auto result = job.Run({"a b c", "b c", "c"});
  ASSERT_TRUE(result.ok());
  const auto counts = Flatten(*result);
  EXPECT_EQ(counts.at("a"), 1);
  EXPECT_EQ(counts.at("b"), 2);
  EXPECT_EQ(counts.at("c"), 3);
  EXPECT_EQ(job.stats().map_input_records, 3u);
  EXPECT_EQ(job.stats().map_output_records, 6u);
  EXPECT_EQ(job.stats().reduce_groups, 3u);
}

TEST(MapReduceTest, EmptyInput) {
  WordCountJob job(WordCountMap(), SumReduce());
  auto result = job.Run({});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Flatten(*result).empty());
}

TEST(MapReduceTest, PartitionOutputsSortedByKey) {
  WordCountJob::Options opts;
  opts.num_reduce_tasks = 4;
  WordCountJob job(WordCountMap(), SumReduce(), opts);
  std::vector<std::string> inputs;
  for (int i = 0; i < 100; ++i) {
    inputs.push_back("w" + std::to_string(i % 37) + " w" +
                     std::to_string((i * 7) % 37));
  }
  auto result = job.Run(inputs);
  ASSERT_TRUE(result.ok());
  for (const auto& part : *result) {
    for (size_t i = 1; i < part.size(); ++i) {
      EXPECT_LT(part[i - 1].first, part[i].first);
    }
  }
}

TEST(MapReduceTest, CombinerPreservesResult) {
  // Word count with and without a combiner must agree; the combiner must
  // cut shuffle volume.
  std::vector<std::string> inputs(200, "x y x");
  WordCountJob plain(WordCountMap(), SumReduce());
  auto without = plain.Run(inputs);
  ASSERT_TRUE(without.ok());

  WordCountJob combined(WordCountMap(), SumReduce());
  combined.set_combiner([](const std::string& key, std::vector<int>& values,
                           const WordCountJob::Emit& emit) {
    int sum = 0;
    for (const int v : values) sum += v;
    emit(key, sum);
  });
  auto with = combined.Run(inputs);
  ASSERT_TRUE(with.ok());

  EXPECT_EQ(Flatten(*without), Flatten(*with));
  EXPECT_LT(combined.stats().combine_output_records,
            combined.stats().map_output_records);
}

TEST(MapReduceTest, ManyWorkersMatchSingleWorker) {
  std::vector<std::string> inputs;
  for (int i = 0; i < 500; ++i) {
    inputs.push_back("k" + std::to_string(i % 53) + " k" +
                     std::to_string(i % 11));
  }
  WordCountJob::Options one;
  one.num_workers = 1;
  WordCountJob::Options eight;
  eight.num_workers = 8;
  eight.split_size = 16;
  WordCountJob job1(WordCountMap(), SumReduce(), one);
  WordCountJob job8(WordCountMap(), SumReduce(), eight);
  auto r1 = job1.Run(inputs);
  auto r8 = job8.Run(inputs);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  EXPECT_EQ(Flatten(*r1), Flatten(*r8));
}

TEST(MapReduceTest, CustomPartitioner) {
  WordCountJob::Options opts;
  opts.num_reduce_tasks = 2;
  WordCountJob job(WordCountMap(), SumReduce(), opts);
  // Everything to partition 1.
  job.set_partitioner([](const std::string&, int) { return 1; });
  auto result = job.Run({"a b", "c"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)[0].empty());
  EXPECT_EQ((*result)[1].size(), 3u);
}

TEST(MapReduceTest, PairKeyWithoutHashRequiresPartitioner) {
  using PairJob =
      MapReduceJob<int, std::pair<std::string, std::string>, int>;
  PairJob job([](const int& x, const PairJob::Emit& emit) {
    emit({"g", "t"}, x);
  },
              [](const std::pair<std::string, std::string>& key,
                 std::vector<int>& values, const PairJob::OutEmit& emit) {
                emit(key, static_cast<int>(values.size()));
              });
  auto bad = job.Run({1, 2, 3});
  EXPECT_FALSE(bad.ok());
  job.set_partitioner(
      [](const std::pair<std::string, std::string>&, int) { return 0; });
  auto good = job.Run({1, 2, 3});
  ASSERT_TRUE(good.ok());
  ASSERT_EQ((*good)[0].size(), 1u);
  EXPECT_EQ((*good)[0][0].second, 3);
}

TEST(MapReduceTest, ValuesArriveGrouped) {
  // The reducer must see exactly the values emitted for its key.
  using Job = MapReduceJob<int, int, int, int, std::vector<int>>;
  Job job(
      [](const int& x, const Job::Emit& emit) { emit(x % 5, x); },
      [](const int& key, std::vector<int>& values, const Job::OutEmit& emit) {
        std::sort(values.begin(), values.end());
        emit(key, values);
      });
  std::vector<int> inputs;
  for (int i = 0; i < 50; ++i) inputs.push_back(i);
  auto result = job.Run(inputs);
  ASSERT_TRUE(result.ok());
  int groups = 0;
  for (const auto& part : *result) {
    for (const auto& [key, values] : part) {
      ++groups;
      EXPECT_EQ(values.size(), 10u);
      for (const int v : values) EXPECT_EQ(v % 5, key);
    }
  }
  EXPECT_EQ(groups, 5);
}

TEST(MapReduceTest, TransientTaskFaultsAreRetriedAway) {
  // Two transient map-task faults and one reduce-task fault: every task
  // re-runs within its attempt budget and the job output is identical to a
  // fault-free run.
  std::vector<std::string> inputs(100, "x y x");
  WordCountJob clean(WordCountMap(), SumReduce());
  auto expected = clean.Run(inputs);
  ASSERT_TRUE(expected.ok());

  FaultInjector injector(/*seed=*/11);
  injector.FailNext(faults::kMapTask, FaultKind::kTransient, 2);
  injector.FailNext(faults::kReduceTask, FaultKind::kTransient, 1);
  WordCountJob::Options opts;
  opts.fault_injector = &injector;
  WordCountJob job(WordCountMap(), SumReduce(), opts);
  auto result = job.Run(inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Flatten(*result), Flatten(*expected));
  EXPECT_EQ(job.counters().Get(counter_names::kMapTaskRetries), 2u);
  EXPECT_EQ(job.counters().Get(counter_names::kReduceTaskRetries), 1u);
  EXPECT_EQ(job.counters().Get(counter_names::kTasksFailed), 0u);
}

TEST(MapReduceTest, ThrowingMapFunctionIsRetried) {
  // A map function that crashes on its first two calls: the task attempt
  // discards its partial output and re-executes, so no records duplicate.
  std::atomic<int> calls{0};
  WordCountJob::Options opts;
  opts.num_workers = 1;
  WordCountJob job(
      [&calls](const std::string& line, const WordCountJob::Emit& emit) {
        if (calls.fetch_add(1) < 2) {
          throw std::runtime_error("simulated worker crash");
        }
        WordCountMap()(line, emit);
      },
      SumReduce(), opts);
  auto result = job.Run({"a b", "b"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto counts = Flatten(*result);
  EXPECT_EQ(counts.at("a"), 1);
  EXPECT_EQ(counts.at("b"), 2);
  EXPECT_EQ(job.counters().Get(counter_names::kMapTaskRetries), 2u);
}

TEST(MapReduceTest, FailedAttemptsPartialEmitsAreDiscarded) {
  // Every task's first attempt emits all its words and only then throws:
  // the retry must start from a partition without those emits, on each of
  // several workers, or words would be counted twice.
  const std::vector<std::string> lines = {"a b", "b c", "c d", "d"};
  std::vector<std::atomic<bool>> attempted(lines.size());
  WordCountJob::Options opts;
  opts.num_workers = 2;
  opts.split_size = 1;
  WordCountJob job(
      [&](const std::string& line, const WordCountJob::Emit& emit) {
        WordCountMap()(line, emit);
        const size_t i = static_cast<size_t>(
            std::find(lines.begin(), lines.end(), line) - lines.begin());
        if (!attempted[i].exchange(true)) {
          throw std::runtime_error("simulated crash after emitting");
        }
      },
      SumReduce(), opts);
  auto result = job.Run(lines);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto counts = Flatten(*result);
  EXPECT_EQ(counts.at("a"), 1);
  EXPECT_EQ(counts.at("b"), 2);
  EXPECT_EQ(counts.at("c"), 2);
  EXPECT_EQ(counts.at("d"), 2);
  EXPECT_EQ(job.counters().Get(counter_names::kMapTaskRetries), lines.size());
  EXPECT_EQ(job.stats().map_output_records, 7u);
}

TEST(MapReduceTest, ExhaustedTaskAttemptsFailTheJobCleanly) {
  // A permanently failing map task: the job fails with the task's error
  // after max_task_attempts tries, not a crash or partial output.
  FaultInjector injector(/*seed=*/13);
  injector.SetFaultRate(faults::kMapTask, FaultKind::kPermanent, 1.0);
  WordCountJob::Options opts;
  opts.fault_injector = &injector;
  opts.max_task_attempts = 3;
  WordCountJob job(WordCountMap(), SumReduce(), opts);
  auto result = job.Run({"a b c", "b c", "c"});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("failed after 3 attempts"),
            std::string::npos);
  EXPECT_GE(job.counters().Get(counter_names::kTasksFailed), 1u);
}

TEST(MapReduceTest, ExhaustedReduceAttemptsFailTheJobCleanly) {
  FaultInjector injector(/*seed=*/17);
  injector.SetFaultRate(faults::kReduceTask, FaultKind::kTransient, 1.0);
  WordCountJob::Options opts;
  opts.fault_injector = &injector;
  WordCountJob job(WordCountMap(), SumReduce(), opts);
  auto result = job.Run({"a b c"});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("reduce task"), std::string::npos);
}

TEST(CountersTest, IncrementAndSnapshot) {
  Counters counters;
  counters.Increment("a");
  counters.Increment("a", 4);
  counters.Increment("b");
  EXPECT_EQ(counters.Get("a"), 5u);
  EXPECT_EQ(counters.Get("b"), 1u);
  EXPECT_EQ(counters.Get("missing"), 0u);
  const auto snapshot = counters.Snapshot();
  EXPECT_EQ(snapshot.size(), 2u);
  counters.Reset();
  EXPECT_EQ(counters.Get("a"), 0u);
}

}  // namespace
}  // namespace tklus
