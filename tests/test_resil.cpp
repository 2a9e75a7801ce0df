// Unit tests for the resilience layer: cancellation tokens,
// checksummed atomic checkpoints (including every corruption mode —
// a damaged file must be detected and reported, never half-loaded),
// and the deterministic chaos hook.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "resil/chaos.h"
#include "resil/resil.h"
#include "unique_temp_path.h"

namespace rascal::resil {
namespace {

std::string temp_path(const std::string& name) {
  return testing_support::unique_temp_path("rascal_resil_" + name);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
}

// --- CancellationToken ---------------------------------------------------

TEST(CancellationToken, StartsUncancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  EXPECT_EQ(token.signal_number(), 0);
  EXPECT_EQ(token.describe(), "not cancelled");
}

TEST(CancellationToken, RequestCancelLatches) {
  CancellationToken token;
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kRequested);
  EXPECT_EQ(token.describe(), "cancellation requested");
  // First cause wins: a later signal must not overwrite the reason.
  token.request_cancel_signal(SIGTERM);
  EXPECT_EQ(token.reason(), CancelReason::kRequested);
}

TEST(CancellationToken, SignalRequestRecordsSignalNumber) {
  CancellationToken token;
  token.request_cancel_signal(SIGTERM);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kSignal);
  EXPECT_EQ(token.signal_number(), SIGTERM);
  EXPECT_EQ(token.describe(), "signal SIGTERM");

  CancellationToken other;
  other.request_cancel_signal(SIGINT);
  EXPECT_EQ(other.describe(), "signal SIGINT");
}

TEST(CancellationToken, NonPositiveDeadlineFiresOnNextPoll) {
  CancellationToken token;
  token.set_deadline_after(0.0);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_EQ(token.describe(), "deadline exceeded");

  CancellationToken negative;
  negative.set_deadline_after(-5.0);
  EXPECT_TRUE(negative.cancelled());
  EXPECT_EQ(negative.reason(), CancelReason::kDeadline);
}

TEST(CancellationToken, FarDeadlineDoesNotFire) {
  CancellationToken token;
  token.set_deadline_after(3600.0);
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
}

TEST(CancellationToken, ReasonToStringCoversAllValues) {
  EXPECT_EQ(to_string(CancelReason::kNone), "none");
  EXPECT_EQ(to_string(CancelReason::kRequested), "requested");
  EXPECT_EQ(to_string(CancelReason::kDeadline), "deadline");
  EXPECT_EQ(to_string(CancelReason::kSignal), "signal");
}

// --- DigestBuilder and bit round-tripping --------------------------------

TEST(DigestBuilder, IsOrderAndContentSensitive) {
  const auto digest = [](auto fill) {
    DigestBuilder b;
    fill(b);
    return b.value();
  };
  const std::uint64_t ab =
      digest([](DigestBuilder& b) { b.add_u64(1).add_u64(2); });
  const std::uint64_t ba =
      digest([](DigestBuilder& b) { b.add_u64(2).add_u64(1); });
  EXPECT_NE(ab, ba);
  EXPECT_EQ(ab, digest([](DigestBuilder& b) { b.add_u64(1).add_u64(2); }));
  EXPECT_NE(digest([](DigestBuilder& b) { b.add_str("campaign"); }),
            digest([](DigestBuilder& b) { b.add_str("uncertainty"); }));
  EXPECT_NE(digest([](DigestBuilder& b) { b.add_f64(0.1); }),
            digest([](DigestBuilder& b) { b.add_f64(0.2); }));
}

TEST(CheckpointWords, DoubleRoundTripIsExact) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 5.25, -123.456e-78,
                           5e-324 /* denormal */};
  for (const double v : values) {
    EXPECT_EQ(bits_f64(f64_bits(v)), v);
  }
  // -0.0 and 0.0 compare equal but have different bit patterns; the
  // checkpoint must preserve the distinction.
  EXPECT_NE(f64_bits(0.0), f64_bits(-0.0));
}

// --- Checkpointer round trip ---------------------------------------------

CheckpointEntry ok_entry(std::uint64_t index,
                         std::vector<std::uint64_t> words) {
  CheckpointEntry e;
  e.index = index;
  e.status = EntryStatus::kOk;
  e.words = std::move(words);
  return e;
}

CheckpointEntry failed_entry(std::uint64_t index, std::string note) {
  CheckpointEntry e;
  e.index = index;
  e.status = EntryStatus::kFailed;
  e.note = std::move(note);
  return e;
}

TEST(Checkpointer, RoundTripsEntriesBitExactly) {
  const std::string path = temp_path("roundtrip.json");
  std::remove(path.c_str());
  {
    Checkpointer writer(path, "unit", 0xDEADBEEFULL, 10);
    writer.record(ok_entry(0, {f64_bits(1.0 / 3.0), 42}));
    writer.record(ok_entry(7, {f64_bits(-0.0)}));
    writer.record(failed_entry(
        3, "solver \"diverged\"\n\tat iteration 5 \x01"));
    writer.flush();
  }
  Checkpointer reader(path, "unit", 0xDEADBEEFULL, 10);
  EXPECT_EQ(reader.resume_from_disk(), 3u);
  const std::vector<CheckpointEntry> entries = reader.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].index, 0u);
  EXPECT_EQ(entries[0].status, EntryStatus::kOk);
  ASSERT_EQ(entries[0].words.size(), 2u);
  EXPECT_EQ(bits_f64(entries[0].words[0]), 1.0 / 3.0);
  EXPECT_EQ(entries[0].words[1], 42u);
  EXPECT_EQ(entries[1].index, 3u);
  EXPECT_EQ(entries[1].status, EntryStatus::kFailed);
  EXPECT_EQ(entries[1].note, "solver \"diverged\"\n\tat iteration 5 \x01");
  EXPECT_EQ(entries[2].index, 7u);
  EXPECT_EQ(f64_bits(bits_f64(entries[2].words[0])), f64_bits(-0.0));
  std::remove(path.c_str());
}

TEST(Checkpointer, FlushCadenceWritesWithoutExplicitFlush) {
  const std::string path = temp_path("cadence.json");
  std::remove(path.c_str());
  Checkpointer writer(path, "unit", 1, 100);
  writer.set_flush_every(2);
  writer.record(ok_entry(0, {1}));
  EXPECT_FALSE(checkpoint_file_exists(path));  // 1 < cadence
  writer.record(ok_entry(1, {2}));
  EXPECT_TRUE(checkpoint_file_exists(path));  // cadence hit
  const CheckpointFile file = load_checkpoint_file(path);
  EXPECT_EQ(file.kind, "unit");
  EXPECT_EQ(file.entries.size(), 2u);
  std::remove(path.c_str());
}

TEST(Checkpointer, AtomicWriteLeavesNoTempFile) {
  const std::string path = temp_path("atomic.json");
  std::remove(path.c_str());
  Checkpointer writer(path, "unit", 1, 4);
  writer.record(ok_entry(0, {}));
  writer.flush();
  EXPECT_TRUE(checkpoint_file_exists(path));
  EXPECT_FALSE(checkpoint_file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Checkpointer, WriteFailureAbortsByDefault) {
  const std::string path = temp_path("abort_policy.json");
  std::remove(path.c_str());
  chaos::configure("checkpoint-write-fail@0");
  Checkpointer writer(path, "unit", 1, 4);
  writer.record(ok_entry(0, {1}));
  EXPECT_THROW(writer.flush(), CheckpointError);
  chaos::configure("");
  std::remove(path.c_str());
}

TEST(Checkpointer, ToleratedWriteFailureRetainsEntriesForRetry) {
  const std::string path = temp_path("tolerate_policy.json");
  std::remove(path.c_str());
  Checkpointer writer(path, "unit", 1, 4);
  writer.set_write_failure_policy(
      Checkpointer::WriteFailurePolicy::kTolerate);
  writer.record(ok_entry(0, {f64_bits(0.25)}));
  writer.record(ok_entry(1, {f64_bits(0.75)}));

  chaos::configure("checkpoint-write-fail@0");
  writer.flush();  // simulated ENOSPC: counted, not thrown
  chaos::configure("");
  EXPECT_EQ(writer.write_failures(), 1u);
  EXPECT_FALSE(checkpoint_file_exists(path));

  // The entries survived in memory: the next flush lands everything.
  writer.flush();
  EXPECT_EQ(writer.write_failures(), 1u);
  ASSERT_TRUE(checkpoint_file_exists(path));
  const CheckpointFile file = load_checkpoint_file(path);
  EXPECT_EQ(file.entries.size(), 2u);
  std::remove(path.c_str());
}

TEST(Checkpointer, MissingFileResumesEmpty) {
  const std::string path = temp_path("missing.json");
  std::remove(path.c_str());
  Checkpointer reader(path, "unit", 1, 4);
  EXPECT_EQ(reader.resume_from_disk(), 0u);
  EXPECT_EQ(reader.size(), 0u);
}

// --- Corruption: detected, reported, never half-loaded -------------------

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("corrupt.json");
    std::remove(path_.c_str());
    Checkpointer writer(path_, "unit", 77, 8);
    for (std::uint64_t i = 0; i < 5; ++i) {
      writer.record(ok_entry(i, {f64_bits(static_cast<double>(i) * 0.1)}));
    }
    writer.flush();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // A reader over a damaged file must throw and keep zero entries.
  void expect_rejected() {
    Checkpointer reader(path_, "unit", 77, 8);
    EXPECT_THROW(reader.resume_from_disk(), CheckpointError);
    EXPECT_EQ(reader.size(), 0u) << "corrupt file must never half-load";
  }

  std::string path_;
};

TEST_F(CheckpointCorruption, TruncatedFileIsRejected) {
  const std::string body = slurp(path_);
  ASSERT_GT(body.size(), 20u);
  spit(path_, body.substr(0, body.size() / 2));
  expect_rejected();
}

TEST_F(CheckpointCorruption, FlippedByteIsRejected) {
  std::string body = slurp(path_);
  // Flip a digit inside an entry payload (not the checksum field
  // itself, so this exercises checksum verification).
  const std::size_t pos = body.find("\"w\":[");
  ASSERT_NE(pos, std::string::npos);
  body[pos + 5] = (body[pos + 5] == '1') ? '2' : '1';
  spit(path_, body);
  expect_rejected();
}

TEST_F(CheckpointCorruption, TrailingGarbageIsRejected) {
  spit(path_, slurp(path_) + "garbage");
  expect_rejected();
}

TEST_F(CheckpointCorruption, NonJsonFileIsRejected) {
  spit(path_, "this is not a checkpoint\n");
  expect_rejected();
}

TEST_F(CheckpointCorruption, EmptyFileIsRejected) {
  spit(path_, "");
  expect_rejected();
}

TEST_F(CheckpointCorruption, KindMismatchIsRejected) {
  Checkpointer reader(path_, "other-kind", 77, 8);
  EXPECT_THROW(reader.resume_from_disk(), CheckpointError);
  EXPECT_EQ(reader.size(), 0u);
}

TEST_F(CheckpointCorruption, DigestMismatchIsRejected) {
  Checkpointer reader(path_, "unit", 78, 8);
  EXPECT_THROW(reader.resume_from_disk(), CheckpointError);
  EXPECT_EQ(reader.size(), 0u);
}

TEST_F(CheckpointCorruption, TotalMismatchIsRejected) {
  Checkpointer reader(path_, "unit", 77, 9);
  EXPECT_THROW(reader.resume_from_disk(), CheckpointError);
  EXPECT_EQ(reader.size(), 0u);
}

TEST_F(CheckpointCorruption, ErrorMessageNamesTheFile) {
  spit(path_, slurp(path_).substr(0, 30));
  try {
    (void)load_checkpoint_file(path_);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(path_), std::string::npos)
        << "diagnostic should name the file: " << e.what();
  }
}

// --- Chaos hook ----------------------------------------------------------

class ChaosGuard {
 public:
  ~ChaosGuard() { chaos::configure(""); }
};

TEST(Chaos, DisabledByDefaultAndAfterEmptySpec) {
  ChaosGuard guard;
  chaos::configure("");
  EXPECT_FALSE(chaos::enabled());
  EXPECT_FALSE(chaos::fires_at("worker-throw", 0));
  chaos::worker_hook(0);  // no-op, must not throw
}

TEST(Chaos, IndexKeyedSitesFireOnlyAtTheirIndex) {
  ChaosGuard guard;
  chaos::configure("worker-throw@3,sigterm@9");
  EXPECT_TRUE(chaos::enabled());
  EXPECT_TRUE(chaos::fires_at("worker-throw", 3));
  EXPECT_FALSE(chaos::fires_at("worker-throw", 4));
  EXPECT_TRUE(chaos::fires_at("sigterm", 9));
  EXPECT_FALSE(chaos::fires_at("sigterm", 3));
}

TEST(Chaos, WorkerHookThrowsChaosErrorAtArmedIndex) {
  ChaosGuard guard;
  chaos::configure("worker-throw@5");
  chaos::worker_hook(4);  // not armed
  try {
    chaos::worker_hook(5);
    FAIL() << "expected ChaosError";
  } catch (const chaos::ChaosError& e) {
    EXPECT_NE(std::string(e.what()).find("5"), std::string::npos);
  }
}

TEST(Chaos, TickIsOccurrenceKeyedAndResetByConfigure) {
  ChaosGuard guard;
  chaos::configure("solver-nonconverge@2");
  EXPECT_FALSE(chaos::tick("solver-nonconverge"));  // occurrence 0
  EXPECT_FALSE(chaos::tick("solver-nonconverge"));  // occurrence 1
  EXPECT_TRUE(chaos::tick("solver-nonconverge"));   // occurrence 2
  EXPECT_FALSE(chaos::tick("solver-nonconverge"));  // occurrence 3
  chaos::configure("solver-nonconverge@0");         // counters reset
  EXPECT_TRUE(chaos::tick("solver-nonconverge"));
}

TEST(Chaos, MalformedTokensAreIgnored) {
  ChaosGuard guard;
  chaos::configure("nonsense,worker-throw@notanumber,@4,,sigterm@2");
  EXPECT_TRUE(chaos::enabled());  // the one valid token armed it
  EXPECT_TRUE(chaos::fires_at("sigterm", 2));
  EXPECT_FALSE(chaos::fires_at("worker-throw", 4));
}

}  // namespace
}  // namespace rascal::resil
