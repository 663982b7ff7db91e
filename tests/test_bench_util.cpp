// Tests for the bench output helpers (bench/bench_util.hpp):
// SWAPGAME_BENCH_DIR redirection must create nested directories on
// demand, tolerate trailing slashes and absolute paths, and fall back to
// the current directory -- never crash or scatter files -- when the
// requested directory cannot be used; and every BENCH_<slug>.json must
// carry the host stamp.
#include "bench/bench_util.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "obs/json.hpp"

namespace swapgame::bench {
namespace {

/// Scoped SWAPGAME_BENCH_DIR override; restores the prior value (or the
/// unset state) so tests cannot leak environment into each other.
class ScopedBenchDir {
 public:
  explicit ScopedBenchDir(const char* value) {
    const char* prev = ::getenv("SWAPGAME_BENCH_DIR");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (value == nullptr) {
      ::unsetenv("SWAPGAME_BENCH_DIR");
    } else {
      ::setenv("SWAPGAME_BENCH_DIR", value, 1);
    }
  }
  ~ScopedBenchDir() {
    if (had_prev_) {
      ::setenv("SWAPGAME_BENCH_DIR", prev_.c_str(), 1);
    } else {
      ::unsetenv("SWAPGAME_BENCH_DIR");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

class BenchOutPath : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/swapgame_bench_util_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static bool is_directory(const std::string& path) {
    struct ::stat st {};
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
  }

  std::string dir_;
};

TEST_F(BenchOutPath, UnsetOrEmptyMeansCurrentDirectory) {
  {
    const ScopedBenchDir env(nullptr);
    EXPECT_EQ(out_path("BENCH_x.json"), "BENCH_x.json");
  }
  {
    const ScopedBenchDir env("");
    EXPECT_EQ(out_path("BENCH_x.json"), "BENCH_x.json");
  }
}

TEST_F(BenchOutPath, CreatesNestedAbsoluteDirectoriesOnDemand) {
  const std::string nested = dir_ + "/a/b/c";
  const ScopedBenchDir env(nested.c_str());
  const std::string path = out_path("BENCH_x.json");
  EXPECT_EQ(path, nested + "/BENCH_x.json");
  EXPECT_TRUE(is_directory(nested));
  // The returned path is really writable.
  std::ofstream f(path);
  EXPECT_TRUE(f.is_open());
}

TEST_F(BenchOutPath, ToleratesTrailingAndDuplicateSeparators) {
  const std::string messy = dir_ + "//deep///dir/";
  const ScopedBenchDir env(messy.c_str());
  const std::string path = out_path("TRACE_x.jsonl");
  EXPECT_TRUE(is_directory(dir_ + "/deep/dir"));
  // No doubled separator in the joined result (the prefix already ends in
  // '/', so the join must not add another).
  EXPECT_EQ(path, messy + "TRACE_x.jsonl");
  EXPECT_EQ(path.find("//TRACE"), std::string::npos);
}

TEST_F(BenchOutPath, FallsBackToCwdWhenTheDirectoryCannotExist) {
  // A path component that is a regular FILE cannot be mkdir'd through;
  // out_path must warn and fall back instead of returning an unusable
  // path (the historical behavior silently wrote to a mkdir-failed path).
  const std::string blocker = dir_ + "/occupied";
  std::ofstream(blocker) << "not a directory";
  const std::string impossible = blocker + "/sub";
  const ScopedBenchDir env(impossible.c_str());
  EXPECT_EQ(out_path("BENCH_x.json"), "BENCH_x.json");
}

TEST_F(BenchOutPath, FallsBackToCwdWhenTheTargetIsAFile) {
  // SWAPGAME_BENCH_DIR pointing AT an existing file (not into it) hits
  // the ENOTDIR branch after the mkdir loop.
  const std::string blocker = dir_ + "/plainfile";
  std::ofstream(blocker) << "x";
  const ScopedBenchDir env(blocker.c_str());
  EXPECT_EQ(out_path("BENCH_x.json"), "BENCH_x.json");
}

TEST_F(BenchOutPath, BenchJsonCarriesTheHostStamp) {
  const ScopedBenchDir env(dir_.c_str());
  {
    Report report("Stamp -- host stamp test", "writes BENCH_stamp.json");
    report.claim("trivially true", true);
    EXPECT_EQ(report.exit_code(), 0);
  }
  std::ifstream in(dir_ + "/BENCH_stamp.json");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(text, doc).is_ok()) << text;
  const obs::json::Value* host = doc.find("host");
  ASSERT_NE(host, nullptr) << text;
  const HostStamp expected = host_stamp();
  EXPECT_EQ(host->find("cpu")->as_string(), expected.cpu);
  EXPECT_EQ(host->find("nproc")->as_u64(), expected.nproc);
  EXPECT_EQ(host->find("compiler")->as_string(), expected.compiler);
  EXPECT_EQ(host->find("build_type")->as_string(), expected.build_type);
  EXPECT_EQ(host->find("simd")->as_string(), expected.simd);
  EXPECT_FALSE(expected.simd.empty());
}

TEST_F(BenchOutPath, TimeLinesStayOutOfTheJson) {
  const ScopedBenchDir env(dir_.c_str());
  {
    Report report("Lines -- time line test", "writes BENCH_lines.json");
    report.metric("kept_metric", 1.0);
    report.time_metric("kept_rate", 2.0);
    report.time_line("host_only_rate", 3.0);
    EXPECT_EQ(report.exit_code(), 0);
  }
  std::ifstream in(dir_ + "/BENCH_lines.json");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(text, doc).is_ok()) << text;
  const obs::json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr) << text;
  EXPECT_NE(metrics->find("kept_metric"), nullptr) << text;
  EXPECT_NE(metrics->find("kept_rate"), nullptr) << text;
  EXPECT_EQ(metrics->find("host_only_rate"), nullptr) << text;
}

TEST(BenchScaling, ScaledFloorsAndDivides) {
  // Without SWAPGAME_MC_SCALE in the environment the budget is untouched.
  if (::getenv("SWAPGAME_MC_SCALE") == nullptr) {
    EXPECT_EQ(mc_scale(), 1u);
    EXPECT_EQ(scaled(4096), 4096u);
  }
  ::setenv("SWAPGAME_MC_SCALE", "8", 1);
  EXPECT_EQ(mc_scale(), 8u);
  EXPECT_EQ(scaled(4096), 512u);
  EXPECT_EQ(scaled(4096, 1024), 1024u);  // floored
  ::setenv("SWAPGAME_MC_SCALE", "0", 1);
  EXPECT_EQ(mc_scale(), 1u);  // nonsense values degrade to full scale
  ::unsetenv("SWAPGAME_MC_SCALE");
}

}  // namespace
}  // namespace swapgame::bench
