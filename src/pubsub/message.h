// Message types for the Pulsar-like messaging substrate (paper §4.3).
#pragma once

#include <cstdint>
#include <string>

#include "common/time_types.h"

namespace taureau::pubsub {

/// Identifies a message within a partitioned topic: (partition, ledger,
/// entry) — mirroring Pulsar's MessageId.
struct MessageId {
  uint32_t partition = 0;
  uint64_t ledger_id = 0;
  uint64_t entry_id = 0;

  auto operator<=>(const MessageId&) const = default;
};

struct Message {
  MessageId id;
  std::string key;      ///< Optional routing/partitioning key.
  std::string payload;
  SimTime publish_time_us = 0;
  SimTime deliver_time_us = 0;
};

}  // namespace taureau::pubsub
