#include "p2p/messages.h"

#include "common/serialize.h"

namespace themis::p2p {

namespace {

void encode_hashes(Writer& w, const std::vector<ledger::BlockHash>& hashes) {
  w.varint(hashes.size());
  for (const auto& h : hashes) w.hash(h);
}

std::vector<ledger::BlockHash> decode_hashes(Reader& r, std::size_t max) {
  const std::uint64_t count = r.varint();
  if (count > max) throw DecodeError("hash list exceeds protocol maximum");
  std::vector<ledger::BlockHash> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(r.hash());
  return out;
}

}  // namespace

Bytes HandshakeMsg::encode() const {
  Writer w(64 + agent.size());
  w.u32(network);
  w.u32(version);
  w.hash(genesis);
  w.u64(node_id);
  w.u16(listen_port);
  w.u64(head_height);
  w.u64(checkpoint_interval);
  w.str(agent);
  return w.take();
}

HandshakeMsg HandshakeMsg::decode(ByteSpan raw) {
  Reader r(raw);
  HandshakeMsg m;
  m.network = r.u32();
  m.version = r.u32();
  m.genesis = r.hash();
  m.node_id = r.u64();
  m.listen_port = r.u16();
  m.head_height = r.u64();
  m.checkpoint_interval = r.u64();
  m.agent = r.str();
  r.expect_done();
  return m;
}

HandshakeReject check_handshake(const HandshakeMsg& remote,
                                std::uint32_t expected_network,
                                std::uint32_t expected_version,
                                const ledger::BlockHash& expected_genesis,
                                std::uint64_t expected_checkpoint_interval) {
  if (remote.network != expected_network) return HandshakeReject::wrong_network;
  if (remote.version != expected_version) return HandshakeReject::wrong_version;
  if (remote.genesis != expected_genesis) return HandshakeReject::wrong_genesis;
  if (remote.checkpoint_interval != expected_checkpoint_interval) {
    return HandshakeReject::wrong_checkpoint_interval;
  }
  return HandshakeReject::ok;
}

Bytes PingMsg::encode() const {
  Writer w(8);
  w.u64(nonce);
  return w.take();
}

PingMsg PingMsg::decode(ByteSpan raw) {
  Reader r(raw);
  PingMsg m;
  m.nonce = r.u64();
  r.expect_done();
  return m;
}

Bytes InvMsg::encode() const {
  Writer w(2 + 32 * hashes.size());
  encode_hashes(w, hashes);
  return w.take();
}

InvMsg InvMsg::decode(ByteSpan raw) {
  Reader r(raw);
  InvMsg m;
  m.hashes = decode_hashes(r, kMaxInvHashes);
  r.expect_done();
  return m;
}

Bytes GetBlocksMsg::encode() const {
  Writer w(8 + 32 * locator.size());
  encode_hashes(w, locator);
  w.u32(max_blocks);
  return w.take();
}

GetBlocksMsg GetBlocksMsg::decode(ByteSpan raw) {
  Reader r(raw);
  GetBlocksMsg m;
  m.locator = decode_hashes(r, kMaxInvHashes);
  m.max_blocks = r.u32();
  r.expect_done();
  return m;
}

Bytes BlocksMsg::encode() const {
  std::size_t total = 8;
  for (const Bytes& b : blocks) total += b.size() + 5;
  Writer w(total);
  w.varint(blocks.size());
  for (const Bytes& b : blocks) w.bytes(b);
  return w.take();
}

BlocksMsg BlocksMsg::decode(ByteSpan raw) {
  Reader r(raw);
  BlocksMsg m;
  const std::uint64_t count = r.varint();
  if (count > kMaxSyncBlocks) throw DecodeError("sync batch exceeds maximum");
  m.blocks.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) m.blocks.push_back(r.bytes());
  r.expect_done();
  return m;
}

Bytes TxBatchMsg::encode() const {
  std::size_t total = 8;
  for (const Bytes& b : txs) total += b.size() + 5;
  Writer w(total);
  w.varint(txs.size());
  for (const Bytes& b : txs) w.bytes(b);
  return w.take();
}

TxBatchMsg TxBatchMsg::decode(ByteSpan raw) {
  Reader r(raw);
  TxBatchMsg m;
  const std::uint64_t count = r.varint();
  if (count > kMaxBatchTxs) throw DecodeError("tx batch exceeds maximum");
  m.txs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) m.txs.push_back(r.bytes());
  r.expect_done();
  return m;
}

}  // namespace themis::p2p
