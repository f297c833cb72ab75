// Statistics primitives: typed read-outs of registry-stored counters, the
// per-host counter block, and per-epoch snapshots. Counters live only in a
// MetricsRegistry (src/common/metrics.h); HostCounters and LrcCounters are
// plain-integer read-outs of them. Epochs are closed at barriers; the model
// library prices epoch deltas to produce the Figure 6 / Figure 7 series.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/common/metrics.h"

namespace millipage {

// A typed counter read-out: a struct T of uint64_t fields, each stored as a
// registry Counter. T::kFields is T's one {registry name, field} table; it
// drives registration (CounterBlock), the read-out (CounterBlock::Read) and
// the field-wise arithmetic below, so a field added to T and its table is
// counted, exported, summed and differenced everywhere.
template <class T>
struct CounterField {
  const char* name;
  uint64_t T::*field;
};

// Field-wise += and - for a read-out T (epoch deltas, cluster totals).
template <class T>
struct CounterArithmetic {
  friend T& operator+=(T& a, const T& b) {
    for (const CounterField<T>& f : T::kFields) {
      a.*f.field += b.*f.field;
    }
    return a;
  }
  friend T operator-(T a, const T& b) {
    for (const CounterField<T>& f : T::kFields) {
      a.*f.field -= b.*f.field;
    }
    return a;
  }
};

// The live store behind a read-out T: one registry Counter per T::kFields
// row, registered once. Increment through block[&T::field] — the lookup
// folds to a constant index at a call site that names the field — and read
// a tear-free-per-field T with Read().
template <class T>
class CounterBlock {
 public:
  explicit CounterBlock(MetricsRegistry& registry) {
    static_assert(OneRowPerField(), "T::kFields needs exactly one row per field of T");
    for (size_t i = 0; i < kN; ++i) {
      counters_[i] = registry.GetCounter(T::kFields[i].name);
    }
  }

  Counter& operator[](uint64_t T::*field) const { return *counters_[IndexOf(field)]; }

  T Read() const {
    T out;
    for (size_t i = 0; i < kN; ++i) {
      out.*T::kFields[i].field = counters_[i]->value();
    }
    return out;
  }

 private:
  static constexpr size_t kN = std::size(T::kFields);

  // As many rows as T has fields, no field twice: then every field has a
  // row, and IndexOf always finds one.
  static constexpr bool OneRowPerField() {
    for (size_t i = 0; i < kN; ++i) {
      for (size_t j = i + 1; j < kN; ++j) {
        if (T::kFields[i].field == T::kFields[j].field) {
          return false;
        }
      }
    }
    return sizeof(T) == kN * sizeof(uint64_t);
  }

  static constexpr size_t IndexOf(uint64_t T::*field) {
    size_t i = 0;
    while (T::kFields[i].field != field) {
      ++i;
    }
    return i;
  }

  Counter* counters_[kN];
};

// Event counters for a single DSM host, read out of the node's registry.
// Fields mirror the quantities the paper reports: fault counts by kind,
// message/byte volume, synchronization activity, and application work units
// (the deterministic compute proxy).
struct HostCounters : CounterArithmetic<HostCounters> {
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t read_fault_bytes = 0;   // minipage bytes fetched by read faults
  uint64_t write_fault_bytes = 0;  // minipage bytes fetched by write faults
  uint64_t invalidations_received = 0;
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t barriers = 0;
  uint64_t lock_acquires = 0;
  uint64_t prefetches = 0;
  uint64_t prefetch_bytes = 0;
  uint64_t work_units = 0;  // app-reported deterministic compute units
  // Requests that queued behind an in-service minipage (manager host only).
  uint64_t competing_requests = 0;
  // Coherence batching: multi-record frames sent and the records they
  // carried. records/frames is the realized coalescing factor.
  uint64_t batch_frames_sent = 0;
  uint64_t batch_records_sent = 0;
  // Datagrams carrying coalescer-routed coherence traffic (invalidate
  // requests and replies, manager-side completion ACKs): multi-record
  // frames, single-record sends, and — with batching off — the one-datagram-
  // per-record protocol. coalesced_records / coalesced_msgs_sent compares
  // the same logical work across batched and unbatched runs.
  uint64_t coalesced_msgs_sent = 0;
  uint64_t coalesced_records = 0;
  // Duplicate or stray invalidate replies dropped idempotently (retransmit
  // tolerance — these used to be fatal).
  uint64_t dup_invalidate_replies = 0;

  static const CounterField<HostCounters> kFields[];
};

// The coalescer pair is stored as dsm.coalesced_*, not host.*: consumers
// that add them from the typed read-out must not find them twice in a
// snapshot.
inline constexpr CounterField<HostCounters> HostCounters::kFields[] = {
    {"host.read_faults", &HostCounters::read_faults},
    {"host.write_faults", &HostCounters::write_faults},
    {"host.read_fault_bytes", &HostCounters::read_fault_bytes},
    {"host.write_fault_bytes", &HostCounters::write_fault_bytes},
    {"host.invalidations_received", &HostCounters::invalidations_received},
    {"host.messages_sent", &HostCounters::messages_sent},
    {"host.bytes_sent", &HostCounters::bytes_sent},
    {"host.barriers", &HostCounters::barriers},
    {"host.lock_acquires", &HostCounters::lock_acquires},
    {"host.prefetches", &HostCounters::prefetches},
    {"host.prefetch_bytes", &HostCounters::prefetch_bytes},
    {"host.work_units", &HostCounters::work_units},
    {"host.competing_requests", &HostCounters::competing_requests},
    {"host.batch_frames_sent", &HostCounters::batch_frames_sent},
    {"host.batch_records_sent", &HostCounters::batch_records_sent},
    {"dsm.coalesced_msgs_sent", &HostCounters::coalesced_msgs_sent},
    {"dsm.coalesced_records", &HostCounters::coalesced_records},
    {"host.dup_invalidate_replies", &HostCounters::dup_invalidate_replies},
};

// One closed epoch (barrier-to-barrier interval) for one host.
struct EpochRecord {
  uint32_t epoch = 0;
  uint32_t host = 0;
  HostCounters delta;
};

// Latency histograms live in src/common/metrics.h (Histogram /
// HistogramSnapshot); the fault paths record into the node's
// MetricsRegistry.

// Simple descriptive statistics over a sample vector.
struct SampleStats {
  double mean = 0;
  double median = 0;
  double min = 0;
  double max = 0;
  double stddev = 0;

  static SampleStats FromSamples(std::vector<double> samples);
};

}  // namespace millipage

#endif  // SRC_COMMON_STATS_H_
