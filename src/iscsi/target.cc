#include "iscsi/target.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/endian.h"
#include "common/logging.h"
#include "iscsi/scsi.h"

namespace prins::iscsi {

IscsiTarget::IscsiTarget(std::shared_ptr<BlockDevice> device,
                         TargetConfig config)
    : device_(std::move(device)), config_(std::move(config)) {}

Status IscsiTarget::serve(Transport& transport) {
  Session session;
  for (;;) {
    auto message = transport.recv();
    if (!message.is_ok()) {
      // A disconnect after login is a normal way for a session to end.
      if (message.status().code() == ErrorCode::kUnavailable) {
        return Status::ok();
      }
      return message.status();
    }
    bool done = false;
    PRINS_RETURN_IF_ERROR(handle_frame(transport, session, *message, &done));
    if (done) return Status::ok();
  }
}

Status IscsiTarget::handle_frame(Transport& transport, Session& session,
                                 ByteSpan message, bool* done) {
  *done = false;
  PRINS_ASSIGN_OR_RETURN(Pdu pdu, Pdu::decode(message, session.header_digest));

  if (!session.logged_in && pdu.opcode != Opcode::kLoginRequest) {
    return failed_precondition("PDU " + std::string(opcode_name(pdu.opcode)) +
                               " before login");
  }
  if (session.pending.active) {
    // Mid data phase: the initiator owes us Data-Out for the pending
    // write; anything else is out of order.
    if (pdu.opcode != Opcode::kDataOut || pdu.itt != session.pending.itt) {
      return failed_precondition("expected Data-Out for ITT " +
                                 std::to_string(session.pending.itt));
    }
    return handle_data_out(transport, session, pdu);
  }

  switch (pdu.opcode) {
    case Opcode::kLoginRequest:
      PRINS_RETURN_IF_ERROR(handle_login(transport, session, pdu));
      break;
    case Opcode::kScsiCommand:
      commands_.fetch_add(1, std::memory_order_relaxed);
      PRINS_RETURN_IF_ERROR(handle_scsi(transport, session, pdu));
      break;
    case Opcode::kNopOut: {
      if (pdu.itt == 0xFFFFFFFFu) break;  // unsolicited ping, no reply
      Pdu reply;
      reply.opcode = Opcode::kNopIn;
      reply.flags = kFlagFinal;
      reply.itt = pdu.itt;
      reply.word6 = session.stat_sn++;
      reply.word7 = session.exp_cmd_sn;
      reply.data = pdu.data;  // echo ping payload
      PRINS_RETURN_IF_ERROR(
          transport.send(reply.encode(session.header_digest)));
      break;
    }
    case Opcode::kTextRequest: {
      // Discovery: answer SendTargets with the target we serve.
      auto kv = decode_login_kv(pdu.data);
      Pdu reply;
      reply.opcode = Opcode::kTextResponse;
      reply.flags = kFlagFinal;
      reply.itt = pdu.itt;
      reply.word5 = 0xFFFFFFFFu;  // no continuation
      reply.word6 = session.stat_sn++;
      reply.word7 = session.exp_cmd_sn;
      if (kv.contains("SendTargets")) {
        reply.data = encode_login_kv({{"TargetName", config_.target_name}});
      }
      PRINS_RETURN_IF_ERROR(
          transport.send(reply.encode(session.header_digest)));
      break;
    }
    case Opcode::kLogoutRequest: {
      Pdu reply;
      reply.opcode = Opcode::kLogoutResponse;
      reply.flags = kFlagFinal;
      reply.itt = pdu.itt;
      reply.word6 = session.stat_sn++;
      reply.word7 = session.exp_cmd_sn;
      PRINS_RETURN_IF_ERROR(
          transport.send(reply.encode(session.header_digest)));
      *done = true;
      break;
    }
    case Opcode::kDataOut:
      return failed_precondition("unsolicited Data-Out");
    default: {
      Pdu reject;
      reject.opcode = Opcode::kReject;
      reject.flags = kFlagFinal;
      reject.byte2 = 0x04;  // protocol error
      reject.itt = 0xFFFFFFFFu;
      reject.word6 = session.stat_sn++;
      PRINS_RETURN_IF_ERROR(
          transport.send(reject.encode(session.header_digest)));
      break;
    }
  }
  return Status::ok();
}

Status IscsiTarget::handle_login(Transport& transport, Session& session,
                                 const Pdu& request) {
  auto kv = decode_login_kv(request.data);
  PRINS_LOG(kDebug) << "login from "
                    << (kv.contains("InitiatorName") ? kv["InitiatorName"]
                                                     : "<anonymous>");
  Pdu reply;
  reply.opcode = Opcode::kLoginResponse;
  // Echo the transit request; move to full-feature phase.
  reply.flags = static_cast<std::uint8_t>(kLoginTransit |
                                          (kStageOperational << 2) |
                                          kStageFullFeature);
  reply.byte2 = 0x00;  // version-max
  reply.byte3 = 0x00;  // version-active
  reply.lun = request.lun;  // ISID echo lives in the same bytes
  reply.itt = request.itt;
  reply.word6 = session.stat_sn++;
  reply.word7 = session.exp_cmd_sn;
  reply.word8 = session.exp_cmd_sn;  // MaxCmdSN
  const bool want_digest =
      config_.allow_header_digest &&
      kv.contains("HeaderDigest") &&
      kv["HeaderDigest"].find("CRC32C") != std::string::npos;
  std::map<std::string, std::string> params{
      {"TargetName", config_.target_name},
      {"MaxRecvDataSegmentLength", std::to_string(config_.max_data_segment)},
      {"ImmediateData", "Yes"},
      {"InitialR2T", "No"},
      {"HeaderDigest", want_digest ? "CRC32C" : "None"},
  };
  reply.data = encode_login_kv(params);
  // The login response itself is never digested; the digest takes effect
  // from the first full-feature-phase PDU.
  PRINS_RETURN_IF_ERROR(transport.send(reply.encode()));
  session.logged_in = true;
  session.header_digest = want_digest;
  return Status::ok();
}

Status IscsiTarget::send_response(Transport& transport, Session& session,
                                  std::uint32_t itt, std::uint8_t scsi_status,
                                  ByteSpan sense) {
  Pdu resp;
  resp.opcode = Opcode::kScsiResponse;
  resp.flags = kFlagFinal;
  resp.byte2 = 0x00;  // response: command completed at target
  resp.byte3 = scsi_status;
  resp.itt = itt;
  resp.word6 = session.stat_sn++;
  resp.word7 = session.exp_cmd_sn;
  resp.word8 = session.exp_cmd_sn + 63;  // MaxCmdSN: generous window
  resp.data = to_bytes(sense);
  return transport.send(resp.encode(session.header_digest));
}

Status IscsiTarget::handle_scsi(Transport& transport, Session& session,
                                const Pdu& command) {
  session.exp_cmd_sn = command.word6 + 1;
  // The CDB occupies BHS bytes 32-47, i.e. words 8..11 in wire order.
  Byte cdb_bytes[kCdbSize];
  store_be32(MutByteSpan(cdb_bytes).subspan(0, 4), command.word8);
  store_be32(MutByteSpan(cdb_bytes).subspan(4, 4), command.word9);
  store_be32(MutByteSpan(cdb_bytes).subspan(8, 4), command.word10);
  store_be32(MutByteSpan(cdb_bytes).subspan(12, 4), command.word11);
  auto cdb = Cdb::decode(ByteSpan(cdb_bytes, kCdbSize));
  if (!cdb.is_ok()) {
    return send_response(transport, session, command.itt, kScsiCheckCondition,
                         sense_invalid_cdb());
  }

  switch (cdb->op) {
    case ScsiOp::kTestUnitReady:
      return send_response(transport, session, command.itt, kScsiGood);
    case ScsiOp::kSynchronizeCache10: {
      Status s = device_->flush();
      if (!s.is_ok()) {
        return send_response(transport, session, command.itt,
                             kScsiCheckCondition, sense_medium_error());
      }
      return send_response(transport, session, command.itt, kScsiGood);
    }
    case ScsiOp::kInquiry: {
      Bytes data = make_inquiry_data();
      if (data.size() > cdb->alloc_len) data.resize(cdb->alloc_len);
      Pdu din;
      din.opcode = Opcode::kDataIn;
      din.flags = kFlagFinal;
      din.itt = command.itt;
      din.word5 = 0xFFFFFFFFu;  // TTT reserved
      din.word6 = session.stat_sn;
      din.word7 = session.exp_cmd_sn;
      din.data = std::move(data);
      PRINS_RETURN_IF_ERROR(transport.send(din.encode(session.header_digest)));
      return send_response(transport, session, command.itt, kScsiGood);
    }
    case ScsiOp::kReportLuns: {
      Bytes data = make_report_luns_data({0});
      if (data.size() > cdb->alloc_len) data.resize(cdb->alloc_len);
      Pdu din;
      din.opcode = Opcode::kDataIn;
      din.flags = kFlagFinal;
      din.itt = command.itt;
      din.word5 = 0xFFFFFFFFu;
      din.word6 = session.stat_sn;
      din.word7 = session.exp_cmd_sn;
      din.data = std::move(data);
      PRINS_RETURN_IF_ERROR(transport.send(din.encode(session.header_digest)));
      return send_response(transport, session, command.itt, kScsiGood);
    }
    case ScsiOp::kReadCapacity10: {
      Pdu din;
      din.opcode = Opcode::kDataIn;
      din.flags = kFlagFinal;
      din.itt = command.itt;
      din.word5 = 0xFFFFFFFFu;
      din.word6 = session.stat_sn;
      din.word7 = session.exp_cmd_sn;
      din.data =
          make_read_capacity10_data(device_->num_blocks(), device_->block_size());
      PRINS_RETURN_IF_ERROR(transport.send(din.encode(session.header_digest)));
      return send_response(transport, session, command.itt, kScsiGood);
    }
    case ScsiOp::kRead10:
    case ScsiOp::kRead16:
      return do_read(transport, session, command, cdb->lba, cdb->blocks);
    case ScsiOp::kWrite10:
    case ScsiOp::kWrite16:
      return do_write(transport, session, command, cdb->lba, cdb->blocks);
  }
  return send_response(transport, session, command.itt, kScsiCheckCondition,
                       sense_invalid_cdb());
}

Status IscsiTarget::do_read(Transport& transport, Session& session,
                            const Pdu& cmd, std::uint64_t lba,
                            std::uint32_t blocks) {
  const std::uint32_t bs = device_->block_size();
  const std::uint64_t total = static_cast<std::uint64_t>(blocks) * bs;
  if (blocks == 0 ||
      lba >= device_->num_blocks() ||
      blocks > device_->num_blocks() - lba) {
    return send_response(transport, session, cmd.itt, kScsiCheckCondition,
                         sense_lba_out_of_range());
  }
  Bytes buffer(total);
  Status s = device_->read(lba, buffer);
  if (!s.is_ok()) {
    return send_response(transport, session, cmd.itt, kScsiCheckCondition,
                         sense_medium_error());
  }
  // Stream the payload as Data-In PDUs of at most max_data_segment bytes.
  std::uint32_t data_sn = 0;
  for (std::uint64_t off = 0; off < total; off += config_.max_data_segment) {
    const std::uint64_t len =
        std::min<std::uint64_t>(config_.max_data_segment, total - off);
    Pdu din;
    din.opcode = Opcode::kDataIn;
    din.itt = cmd.itt;
    din.word5 = 0xFFFFFFFFu;
    din.word6 = session.stat_sn;
    din.word7 = session.exp_cmd_sn;
    din.word9 = data_sn++;
    din.word10 = static_cast<std::uint32_t>(off);  // buffer offset
    din.data.assign(buffer.begin() + static_cast<std::ptrdiff_t>(off),
                    buffer.begin() + static_cast<std::ptrdiff_t>(off + len));
    if (off + len == total) din.flags |= kFlagFinal;
    PRINS_RETURN_IF_ERROR(transport.send(din.encode(session.header_digest)));
  }
  return send_response(transport, session, cmd.itt, kScsiGood);
}

Status IscsiTarget::do_write(Transport& transport, Session& session,
                             const Pdu& cmd, std::uint64_t lba,
                             std::uint32_t blocks) {
  const std::uint32_t bs = device_->block_size();
  const std::uint64_t total = static_cast<std::uint64_t>(blocks) * bs;
  if (blocks == 0 ||
      lba >= device_->num_blocks() ||
      blocks > device_->num_blocks() - lba) {
    return send_response(transport, session, cmd.itt, kScsiCheckCondition,
                         sense_lba_out_of_range());
  }
  // Immediate data arrives in the command PDU itself.  When it carries the
  // whole transfer, the device writes straight from the PDU.
  const std::uint64_t received =
      std::min<std::uint64_t>(cmd.data.size(), total);
  if (received == total) {
    return land_write(transport, session, cmd.itt, lba,
                      ByteSpan(cmd.data.data(), total));
  }

  // Ask for the rest with one R2T covering the remainder, then park the
  // partial buffer in the session: the data phase completes as Data-Out
  // PDUs arrive (handle_frame routes them to handle_data_out), so no
  // nested recv() loop blocks the caller mid-command.
  Bytes buffer(total, 0);
  if (received > 0) std::memcpy(buffer.data(), cmd.data.data(), received);
  const std::uint32_t ttt = session.next_ttt++;
  Pdu r2t;
  r2t.opcode = Opcode::kR2t;
  r2t.flags = kFlagFinal;
  r2t.itt = cmd.itt;
  r2t.word5 = ttt;
  r2t.word6 = session.stat_sn;
  r2t.word7 = session.exp_cmd_sn;
  r2t.word9 = 0;  // R2TSN
  r2t.word10 = static_cast<std::uint32_t>(received);       // offset
  r2t.word11 = static_cast<std::uint32_t>(total - received);  // length
  PRINS_RETURN_IF_ERROR(transport.send(r2t.encode(session.header_digest)));
  session.pending.active = true;
  session.pending.itt = cmd.itt;
  session.pending.lba = lba;
  session.pending.total = total;
  session.pending.received = received;
  session.pending.buffer = std::move(buffer);
  return Status::ok();
}

Status IscsiTarget::handle_data_out(Transport& transport, Session& session,
                                    const Pdu& dout) {
  PendingWrite& pending = session.pending;
  const std::uint64_t off = dout.word10;
  if (off + dout.data.size() > pending.total) {
    const std::uint32_t itt = pending.itt;
    pending = PendingWrite{};
    return send_response(transport, session, itt, kScsiCheckCondition,
                         sense_invalid_cdb());
  }
  std::memcpy(pending.buffer.data() + off, dout.data.data(), dout.data.size());
  pending.received += dout.data.size();
  if (pending.received < pending.total) return Status::ok();

  // Data phase complete: land the write and retire the pending state.
  const std::uint32_t itt = pending.itt;
  const std::uint64_t lba = pending.lba;
  Bytes buffer = std::move(pending.buffer);
  pending = PendingWrite{};
  return land_write(transport, session, itt, lba, buffer);
}

Status IscsiTarget::land_write(Transport& transport, Session& session,
                               std::uint32_t itt, std::uint64_t lba,
                               ByteSpan data) {
  if (!device_->write(lba, data).is_ok()) {
    return send_response(transport, session, itt, kScsiCheckCondition,
                         sense_medium_error());
  }
  return send_response(transport, session, itt, kScsiGood);
}

std::thread serve_in_background(std::shared_ptr<IscsiTarget> target,
                                std::shared_ptr<Listener> listener) {
  return std::thread([target = std::move(target),
                      listener = std::move(listener)] {
    std::vector<std::thread> sessions;
    int consecutive_failures = 0;
    for (;;) {
      auto conn = listener->accept();
      if (!conn.is_ok()) {
        // Closed listener = clean shutdown; other accept errors are
        // transient — retry rather than abandoning every future initiator,
        // but don't spin forever if accept() only ever fails.
        if (conn.status().code() == ErrorCode::kUnavailable) break;
        PRINS_LOG(kWarn) << "iSCSI accept: " << conn.status().to_string();
        if (++consecutive_failures >= 64) {
          PRINS_LOG(kError)
              << "iSCSI accept failing persistently; stopping the loop";
          break;
        }
        continue;
      }
      consecutive_failures = 0;
      // One session thread per initiator: a slow or failed connection no
      // longer wedges the accept loop behind it.
      sessions.emplace_back(
          [target, conn = std::shared_ptr<Transport>(std::move(*conn))] {
            Status s = target->serve(*conn);
            if (!s.is_ok()) {
              PRINS_LOG(kWarn)
                  << "iSCSI session ended with error: " << s.to_string();
            }
          });
    }
    for (std::thread& session : sessions) session.join();
  });
}

}  // namespace prins::iscsi
