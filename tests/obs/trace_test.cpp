#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

namespace ls::obs {
namespace {

// A file under TempDir() named after the running test: ctest -j runs every
// case as its own process, so a shared name would let cases clobber it.
std::string temp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + stem + "_" + info->name() + ".json";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Trace, DisabledByDefaultAndSpansInert) {
  Tracer& tr = Tracer::instance();
  tr.stop();
  tr.clear();
  EXPECT_FALSE(trace_enabled());
  {
    Span s("noop", "test");  // not armed while disabled
    Span s2;
    if (trace_enabled()) s2.begin("never", "test");
  }
  EXPECT_EQ(tr.event_count(), 0u);
}

TEST(Trace, SpanRecordsCompleteEvent) {
  Tracer& tr = Tracer::instance();
  tr.start("");  // in-memory capture
  EXPECT_TRUE(trace_enabled());
  {
    Span s;
    if (trace_enabled()) s.begin("unit.span", "test", "{\"k\":1}");
  }
  tr.stop();
  EXPECT_GE(tr.event_count(), 1u);
  tr.clear();
}

TEST(Trace, StartClearsPreviousEvents) {
  Tracer& tr = Tracer::instance();
  tr.start("");
  tr.complete("stale", "test", 0, 1, kWallPid, 0);
  ASSERT_GE(tr.event_count(), 1u);
  tr.start("");
  EXPECT_EQ(tr.event_count(), 0u);
  tr.stop();
}

TEST(Trace, WriteWithoutPathFails) {
  Tracer& tr = Tracer::instance();
  tr.start("");
  tr.stop();
  EXPECT_FALSE(tr.write());
  tr.clear();
}

TEST(Trace, WriteEmitsChromeTraceJson) {
  Tracer& tr = Tracer::instance();
  tr.start("");
  tr.complete("layerA", "compute", 10, 20, kSimPid, 3, "{\"flits\":7}");
  tr.complete("burstA", "noc.burst", 0, 10, kSimPid, 16);
  tr.set_virtual_thread_name(kSimPid, 3, "core-3");
  tr.stop();

  const std::string path = temp_path("trace_out");
  ASSERT_TRUE(tr.write(path));
  const std::string doc = slurp(path);

  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Process metadata for both time domains and the named virtual thread.
  EXPECT_NE(doc.find("wall-clock"), std::string::npos);
  EXPECT_NE(doc.find("sim-cycles"), std::string::npos);
  EXPECT_NE(doc.find("core-3"), std::string::npos);
  // The complete events with verbatim args.
  EXPECT_NE(doc.find("\"name\":\"layerA\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("{\"flits\":7}"), std::string::npos);
  // Structurally balanced (no string content here contains braces).
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
  tr.clear();
}

TEST(Trace, CounterAndFlowEventsEmitChromeTracePhases) {
  Tracer& tr = Tracer::instance();
  tr.start("");
  tr.counter("stream.inflight", "stream", 5, 2.0, kSimPid);
  // Both edges of one flow arrow, landing inside complete events on
  // their tracks (the viewer's binding requirement).
  tr.complete("burst", "noc.burst", 0, 10, kSimPid, 16);
  tr.complete("layer", "compute", 10, 20, kSimPid, 3);
  tr.flow(true, "stream.req0", "stream", 9, 77, kSimPid, 16);
  tr.flow(false, "stream.req0", "stream", 10, 77, kSimPid, 3);
  tr.stop();

  const std::string path = temp_path("trace_counter_flow");
  ASSERT_TRUE(tr.write(path));
  const std::string doc = slurp(path);

  // Counter sample: "ph":"C", value in args, no tid (counters are
  // process-scoped tracks).
  const std::size_t cpos = doc.find("\"name\":\"stream.inflight\"");
  ASSERT_NE(cpos, std::string::npos);
  const std::string crec = doc.substr(cpos, doc.find('}', cpos) - cpos + 1);
  EXPECT_NE(crec.find("\"ph\":\"C\""), std::string::npos) << crec;
  EXPECT_NE(crec.find("\"value\":2"), std::string::npos) << crec;
  EXPECT_EQ(crec.find("\"tid\""), std::string::npos) << crec;

  // Flow edges: matching id, "ph":"s" start and "ph":"f" finish with the
  // enclosing-slice binding point.
  EXPECT_NE(doc.find("\"ph\":\"s\""), std::string::npos);
  const std::size_t fpos = doc.find("\"ph\":\"f\"");
  ASSERT_NE(fpos, std::string::npos);
  const std::string frec = doc.substr(fpos, doc.find('}', fpos) - fpos + 1);
  EXPECT_NE(frec.find("\"bp\":\"e\""), std::string::npos) << frec;
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  tr.clear();
}

TEST(Trace, ReArmedSpanClosesPreviousInterval) {
  Tracer& tr = Tracer::instance();
  tr.start("");
  Span s;
  s.begin("first", "test");
  s.begin("second", "test");  // should record "first" before re-arming
  s.end();
  tr.stop();
  EXPECT_GE(tr.event_count(), 2u);
  tr.clear();
}

}  // namespace
}  // namespace ls::obs
