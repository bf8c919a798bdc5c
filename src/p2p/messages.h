// Payload encodings for the p2p frame types (consensus/wire.h, kP2p*).
//
// All payloads use the canonical little-endian primitives from
// common/serialize.h, so every message is a pure function of its fields and
// decode(encode(m)) == m by construction.  Decoders throw DecodeError on any
// malformed input (short buffers, absurd counts, trailing garbage); the
// connection owner treats that exactly like a frame error and closes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "finality/checkpoint.h"
#include "ledger/types.h"

namespace themis::p2p {

/// Bumped whenever a frame payload changes incompatibly.  Handshakes carrying
/// a different version are rejected before any other frame is processed.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Identifies the network (chain) a node is on; a second deployment with
/// different parameters would pick a different magic so stray cross-network
/// connections die at the handshake.
inline constexpr std::uint32_t kNetworkMagic = 0x54484d53;  // "SMHT"

/// Upper bound on hashes in one inv / getdata / locator message.
inline constexpr std::size_t kMaxInvHashes = 2048;

/// Upper bound on blocks in one kP2pBlocks sync batch.
inline constexpr std::size_t kMaxSyncBlocks = 512;

/// First frame on every connection, in both directions.  A peer whose
/// network magic, protocol version, genesis hash or checkpoint interval
/// differs is rejected (close, no reply) — it is on a different network,
/// speaks a different protocol, or would vote on checkpoint heights ours
/// rejects, and nothing after the handshake could be interpreted safely.
struct HandshakeMsg {
  std::uint32_t network = kNetworkMagic;
  std::uint32_t version = kProtocolVersion;
  ledger::BlockHash genesis{};
  std::uint64_t node_id = 0;
  std::uint16_t listen_port = 0;  ///< 0 = not listening (inbound-only peer)
  std::uint64_t head_height = 0;  ///< best height at connect time (sync hint)
  /// Checkpoint finality interval k (0 = the overlay is off).  Votes are
  /// only valid at multiples of k, so peers must agree on it.
  std::uint64_t checkpoint_interval = 0;
  std::string agent;              ///< free-form software identifier

  Bytes encode() const;
  static HandshakeMsg decode(ByteSpan raw);
  bool operator==(const HandshakeMsg&) const = default;
};

/// Why a handshake was refused (kept as an enum so tests and counters can
/// assert on the precise reason).
enum class HandshakeReject {
  ok,
  wrong_network,
  wrong_version,
  wrong_genesis,
  wrong_checkpoint_interval,
};

/// Validate a remote handshake against our own parameters.
HandshakeReject check_handshake(const HandshakeMsg& remote,
                                std::uint32_t expected_network,
                                std::uint32_t expected_version,
                                const ledger::BlockHash& expected_genesis,
                                std::uint64_t expected_checkpoint_interval);

/// kP2pPing / kP2pPong carry one nonce; the pong echoes the ping's.
struct PingMsg {
  std::uint64_t nonce = 0;

  Bytes encode() const;
  static PingMsg decode(ByteSpan raw);
};

/// kP2pInv / kP2pGetData: a list of block hashes.  Inv announces blocks the
/// sender has; getdata requests the full encodings for the subset the
/// receiver lacks (the inventory-based duplicate suppression that replaces
/// net/gossip's seen-set accounting on the real network).
struct InvMsg {
  std::vector<ledger::BlockHash> hashes;

  Bytes encode() const;
  static InvMsg decode(ByteSpan raw);
};

/// kP2pGetBlocks: chain-sync range request.  The locator lists main-chain
/// hashes of the requester, newest first, with exponentially growing gaps
/// (see sync.h); the responder finds the first hash it also has on its main
/// chain and serves up to max_blocks successors.
struct GetBlocksMsg {
  std::vector<ledger::BlockHash> locator;
  std::uint32_t max_blocks = kMaxSyncBlocks;

  Bytes encode() const;
  static GetBlocksMsg decode(ByteSpan raw);
};

/// kP2pBlocks: the range response — canonical block encodings in chain order.
/// An empty batch means the requester is already at (or past) our head.
struct BlocksMsg {
  std::vector<Bytes> blocks;

  Bytes encode() const;
  static BlocksMsg decode(ByteSpan raw);
};

/// Upper bound on transactions in one kP2pTxBatch frame.
inline constexpr std::size_t kMaxBatchTxs = 2048;

/// kP2pTxBatch: canonical SignedTransaction encodings, sent in response to
/// kP2pGetTxData.  Delivering the whole requested set in one frame lets the
/// receiving node run a single batch signature verification over it instead
/// of one Schnorr check per relay message.
struct TxBatchMsg {
  std::vector<Bytes> txs;

  Bytes encode() const;
  static TxBatchMsg decode(ByteSpan raw);
};

/// kP2pCkptVote: one checkpoint finality vote (src/finality).  Votes flood
/// like block invs — every node relays a newly accepted vote to peers not
/// already known to have it (Peer::mark_known on the vote id) — so quorum
/// assembles in O(gossip diameter) without any leader.  Malformed payloads
/// throw DecodeError and close the connection like every other frame.
struct CkptVoteMsg {
  finality::CheckpointVote vote;

  Bytes encode() const { return vote.encode(); }
  static CkptVoteMsg decode(ByteSpan raw) {
    return CkptVoteMsg{finality::CheckpointVote::decode(raw)};
  }
};

}  // namespace themis::p2p
