#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/json.h"
#include "support/table.h"

namespace clpp::obs {

namespace {
// Sized so a quickstart-scale training run (~35k span events on the main
// thread, dominated by per-GEMM spans) fits without ring wrap-around.
// Capacity is a *ceiling*, not an upfront allocation: storage arrives in
// kChunkEvents-sized chunks as a thread actually records.
constexpr std::size_t kDefaultThreadCapacity = 1 << 17;
// 4096 events x 48 bytes = 192 KiB per chunk. A short-lived thread that
// records a handful of spans (e.g. a serve client submitting one request)
// pays for one chunk, not the full ring — eager full-ring allocation made
// thread churn under tracing ~100x more expensive than the spans themselves.
constexpr std::size_t kChunkEvents = 1 << 12;

// Static initialization runs on the process's main thread.
const std::thread::id g_main_thread = std::this_thread::get_id();
}

struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(std::uint32_t id, std::size_t ring_capacity)
      : tid(id), capacity(ring_capacity),
        chunks((ring_capacity + kChunkEvents - 1) / kChunkEvents) {
    for (auto& chunk : chunks) chunk.store(nullptr, std::memory_order_relaxed);
  }

  ~ThreadBuffer() {
    for (auto& chunk : chunks) delete[] chunk.load(std::memory_order_relaxed);
  }

  /// Writer-side slot lookup: allocates the chunk on first touch. Only the
  /// owning thread calls this, so plain new + release store suffices.
  Event& slot(std::uint64_t i) {
    const std::size_t idx = static_cast<std::size_t>(i % capacity);
    std::atomic<Event*>& entry = chunks[idx / kChunkEvents];
    Event* chunk = entry.load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Event[chunk_len(idx / kChunkEvents)];
      entry.store(chunk, std::memory_order_release);
    }
    return chunk[idx % kChunkEvents];
  }

  /// Reader-side slot lookup. Valid for i < count: the writer publishes the
  /// chunk (release) before publishing the count that covers it.
  const Event& slot(std::uint64_t i) const {
    const std::size_t idx = static_cast<std::size_t>(i % capacity);
    return chunks[idx / kChunkEvents].load(
        std::memory_order_acquire)[idx % kChunkEvents];
  }

  std::size_t chunk_len(std::size_t chunk_index) const {
    return std::min(kChunkEvents, capacity - chunk_index * kChunkEvents);
  }

  std::uint32_t tid;
  std::string name;  // written under Impl::mu (set_thread_name / export)
  std::size_t capacity;  // ring size in events (wrap-around modulus)
  std::vector<std::atomic<Event*>> chunks;  // lazily allocated storage
  // Single writer (the owning thread); readers acquire `count` and only
  // trust events published before it.
  std::atomic<std::uint64_t> count{0};
};

struct Tracer::Impl {
  std::mutex mu;  // guards `buffers`/`retired` registration and resets
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  // Buffers whose owning thread has exited, available for adoption by the
  // next registering thread (their already-allocated chunks are reused, so
  // thread churn does not grow the tracer without bound). A retired buffer
  // keeps its events visible to exports until it is actually adopted.
  std::vector<ThreadBuffer*> retired;
  std::atomic<std::size_t> thread_capacity{kDefaultThreadCapacity};
  std::atomic<std::uint64_t> reset_generation{0};
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::instance() {
  // Leaked singleton: worker threads may record during static teardown.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::uint64_t Tracer::now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - epoch)
          .count());
}

Tracer::ThreadBuffer& Tracer::buffer_for_this_thread() {
  struct Slot {
    ThreadBuffer* buffer = nullptr;
    std::uint64_t generation = 0;

    /// Thread exit retires the buffer so the next registering thread can
    /// adopt it instead of allocating fresh (the tracer singleton and its
    /// Impl are leaked, so they outlive every thread_local destructor).
    ~Slot() {
      if (buffer == nullptr) return;
      Impl* impl = Tracer::instance().impl_;
      std::lock_guard<std::mutex> lock(impl->mu);
      impl->retired.push_back(buffer);
    }
  };
  thread_local Slot slot;
  const std::uint64_t generation =
      impl_->reset_generation.load(std::memory_order_acquire);
  if (slot.buffer == nullptr || slot.generation != generation) {
    std::lock_guard<std::mutex> lock(impl_->mu);
    const std::size_t capacity =
        impl_->thread_capacity.load(std::memory_order_relaxed);
    // A reset abandoned this thread's old buffer; make it adoptable too,
    // and keep the thread's name.
    std::string name;
    if (slot.buffer != nullptr) {
      name = slot.buffer->name;
      impl_->retired.push_back(slot.buffer);
    }
    ThreadBuffer* adopted = nullptr;
    while (!impl_->retired.empty() && adopted == nullptr) {
      ThreadBuffer* candidate = impl_->retired.back();
      impl_->retired.pop_back();
      // Capacity changes (tests) invalidate retired rings; skip those.
      if (candidate->capacity == capacity) adopted = candidate;
    }
    if (adopted != nullptr) {
      adopted->count.store(0, std::memory_order_relaxed);
      slot.buffer = adopted;
    } else {
      auto buffer = std::make_unique<ThreadBuffer>(
          static_cast<std::uint32_t>(impl_->buffers.size()), capacity);
      slot.buffer = buffer.get();
      impl_->buffers.push_back(std::move(buffer));
    }
    if (name.empty())
      name = std::this_thread::get_id() == g_main_thread
                 ? "main"
                 : "thread-" + std::to_string(slot.buffer->tid);
    slot.buffer->name = std::move(name);
    slot.generation = generation;
  }
  return *slot.buffer;
}

void Tracer::record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
                    std::int64_t arg, std::uint64_t flow_id, FlowPhase phase) {
  ThreadBuffer& buf = buffer_for_this_thread();
  const std::uint64_t i = buf.count.load(std::memory_order_relaxed);
  buf.slot(i) = Event{name, begin_ns, end_ns, arg, flow_id, phase};
  buf.count.store(i + 1, std::memory_order_release);
}

namespace {

/// 16-hex-digit flow id: Chrome flow events carry string ids, and hex keeps
/// 64-bit ids lossless (Json numbers are doubles, exact only to 2^53).
std::string flow_hex(std::uint64_t id) {
  TraceContext context;
  context.trace_id = id;
  return context.trace_hex();
}

}  // namespace

Json Tracer::chrome_trace() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Json events = Json::array();
  // Metadata first: name every thread so Perfetto timelines are readable.
  for (const auto& buf : impl_->buffers) {
    Json meta = Json::object();
    meta["name"] = "thread_name";
    meta["ph"] = "M";
    meta["pid"] = 1;
    meta["tid"] = static_cast<std::int64_t>(buf->tid);
    Json args = Json::object();
    args["name"] = buf->name;
    meta["args"] = std::move(args);
    events.push_back(std::move(meta));
  }
  for (const auto& buf : impl_->buffers) {
    const std::uint64_t n = buf->count.load(std::memory_order_acquire);
    const std::uint64_t cap = buf->capacity;
    const std::uint64_t live = std::min(n, cap);
    const std::uint64_t first = n - live;
    for (std::uint64_t i = first; i < n; ++i) {
      const Event& e = static_cast<const ThreadBuffer&>(*buf).slot(i);
      Json ev = Json::object();
      ev["name"] = std::string(e.name);
      ev["cat"] = "clpp";
      ev["ph"] = "X";
      ev["pid"] = 1;
      ev["tid"] = static_cast<std::int64_t>(buf->tid);
      ev["ts"] = static_cast<double>(e.begin_ns) / 1e3;  // microseconds
      ev["dur"] = static_cast<double>(e.end_ns - e.begin_ns) / 1e3;
      if (e.arg != kNoArg || e.flow_id != 0) {
        Json args = Json::object();
        if (e.arg != kNoArg) args["v"] = e.arg;
        if (e.flow_id != 0) args["trace_id"] = flow_hex(e.flow_id);
        ev["args"] = std::move(args);
      }
      events.push_back(std::move(ev));
      // Flow linkage: an "s"/"t"/"f" event anchored inside the span (same
      // tid, ts at the span begin) sharing the request's id — Perfetto and
      // chrome://tracing draw these as arrows connecting the request's
      // segments across thread lanes.
      if (e.flow_id != 0 && e.flow != FlowPhase::kNone) {
        Json flow = Json::object();
        flow["name"] = "request";
        flow["cat"] = "clpp.flow";
        flow["ph"] = e.flow == FlowPhase::kStart ? "s"
                     : e.flow == FlowPhase::kStep ? "t"
                                                  : "f";
        if (e.flow == FlowPhase::kEnd) flow["bp"] = "e";
        flow["id"] = flow_hex(e.flow_id);
        flow["pid"] = 1;
        flow["tid"] = static_cast<std::int64_t>(buf->tid);
        flow["ts"] = static_cast<double>(e.begin_ns) / 1e3;
        events.push_back(std::move(flow));
      }
    }
  }
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

std::string Tracer::summary() const {
  struct Agg {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double min_ns = std::numeric_limits<double>::infinity();
    double max_ns = 0.0;
  };
  std::map<std::string, Agg> by_name;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const auto& buf : impl_->buffers) {
      const std::uint64_t n = buf->count.load(std::memory_order_acquire);
      const std::uint64_t cap = buf->capacity;
      const std::uint64_t live = std::min(n, cap);
      for (std::uint64_t i = n - live; i < n; ++i) {
        const Event& e = static_cast<const ThreadBuffer&>(*buf).slot(i);
        Agg& agg = by_name[e.name];
        const double d = static_cast<double>(e.end_ns - e.begin_ns);
        ++agg.count;
        agg.total_ns += d;
        agg.min_ns = std::min(agg.min_ns, d);
        agg.max_ns = std::max(agg.max_ns, d);
      }
    }
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  TextTable table({"span", "count", "total ms", "mean ms", "min ms", "max ms"});
  for (const auto& [name, agg] : rows) {
    table.add_row({name, std::to_string(agg.count),
                   TextTable::num(agg.total_ns / 1e6, 2),
                   TextTable::num(agg.total_ns / 1e6 / static_cast<double>(agg.count), 3),
                   TextTable::num(agg.min_ns / 1e6, 3),
                   TextTable::num(agg.max_ns / 1e6, 3)});
  }
  return table.str();
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::uint64_t total = 0;
  for (const auto& buf : impl_->buffers)
    total += buf->count.load(std::memory_order_acquire);
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::uint64_t total = 0;
  for (const auto& buf : impl_->buffers) {
    const std::uint64_t n = buf->count.load(std::memory_order_acquire);
    if (n > buf->capacity) total += n - buf->capacity;
  }
  return total;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  // Old buffers are abandoned (still owned here, so in-flight writers on
  // other threads stay safe until they observe the new generation).
  impl_->reset_generation.fetch_add(1, std::memory_order_release);
  for (auto& buf : impl_->buffers) buf->count.store(0, std::memory_order_relaxed);
}

void Tracer::set_thread_capacity(std::size_t events) {
  if (events == 0) events = 1;
  impl_->thread_capacity.store(events, std::memory_order_relaxed);
}

void Tracer::set_thread_name(std::string name) {
  ThreadBuffer& buf = buffer_for_this_thread();
  std::lock_guard<std::mutex> lock(impl_->mu);
  buf.name = std::move(name);
}

std::uint64_t Tracer::generation() const {
  return impl_->reset_generation.load(std::memory_order_acquire);
}

void name_worker_thread() {
  if (!enabled()) return;
  Tracer& tracer = Tracer::instance();
  // Re-name after a reset (the reset abandoned this thread's old buffer).
  thread_local std::uint64_t named_generation = ~std::uint64_t{0};
  const std::uint64_t generation = tracer.generation();
  if (named_generation == generation) return;
  named_generation = generation;
  tracer.set_thread_name("parallel_for worker");
}

}  // namespace clpp::obs
