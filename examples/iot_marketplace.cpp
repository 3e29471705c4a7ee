// IoT data marketplace (paper §2.3, use case 1): multiple IoT publishers
// stream sensor readings to a third-party WedgeBlock Offchain Node;
// consumers read and verify the data; a Payment contract compensates the
// node for its logging service.
//
// Build & run:  ./build/examples/iot_marketplace

#include <cstdio>
#include <string>

#include "shard/sharded_engine.h"

using namespace wedge;

namespace {

struct Sensor {
  std::string name;
  KeyPair key;
  uint64_t next_seq = 0;
};

}  // namespace

int main() {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = 16;  // Small demo batches.
  auto deployment = ShardedDeployment::Create(config);
  if (!deployment.ok()) return 1;
  ShardedDeployment& d = **deployment;

  // --- A logging-as-a-service subscription: 1 gwei per simulated minute.
  auto payment = d.CreatePaymentChannel(/*period_seconds=*/60,
                                        GweiToWei(1),
                                        /*max_overdue_periods=*/60);
  if (!payment.ok()) return 1;
  PaymentChannelClient subscriber(&d.chain(), payment.value(),
                                  d.MakePublisher(0).address());
  if (!subscriber.Deposit(GweiToWei(600)).ok()) return 1;  // 10 hours.
  if (!subscriber.StartPayment().ok()) return 1;
  std::printf("subscription started: 1 gwei/min, %llu periods prepaid\n",
              static_cast<unsigned long long>(
                  subscriber.RemainingPeriods().value_or(0)));

  // --- Three sensors publish interleaved readings through the shared
  // publisher-facing node. (They share the marketplace's publisher
  // address for the punishment bond; each signs its own payloads.)
  std::vector<Sensor> sensors;
  for (int i = 0; i < 3; ++i) {
    sensors.push_back(
        Sensor{"sensor-" + std::to_string(i), KeyPair::FromSeed(5000 + i)});
  }

  std::vector<AppendRequest> batch;
  for (int round = 0; round < 16; ++round) {
    for (Sensor& s : sensors) {
      std::string key = s.name + "/reading/" + std::to_string(round);
      std::string value = std::to_string(20.0 + round * 0.1) + "C";
      batch.push_back(AppendRequest::Make(s.key, s.next_seq++, ToBytes(key),
                                          ToBytes(value)));
    }
  }
  auto responses = d.engine().Append(/*tenant=*/0, std::move(batch));
  if (!responses.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 responses.status().ToString().c_str());
    return 1;
  }
  std::printf("published %zu readings from %zu sensors across %llu log "
              "positions\n",
              responses->size(), sensors.size(),
              static_cast<unsigned long long>(
                  d.engine().shard(0).LogPositions()));

  // --- Stage 2 lands lazily.
  d.AdvanceBlocks(4);

  // --- A data consumer buys access and verifies provenance: the reading
  // is blockchain-committed AND carries the sensor's own signature.
  UserClient consumer = d.MakeUser(/*tenant=*/0, /*seed=*/9001);
  auto read = consumer.ReadVerified(EntryIndex{1, 5}, true);
  if (!read.ok()) return 1;
  auto reading = AppendRequest::Deserialize(read->entry);
  bool sensor_sig_ok = reading->VerifySignature();
  std::printf("consumer verified %s = %s (chain-committed: yes, sensor "
              "signature: %s)\n",
              ToString(reading->key).c_str(), ToString(reading->value).c_str(),
              sensor_sig_ok ? "valid" : "INVALID");

  // --- An auditor spot-checks the whole marketplace log.
  AuditorClient auditor = d.MakeAuditor(/*tenant=*/0, /*seed=*/9002);
  auto report = auditor.Audit(0, d.engine().shard(0).LogPositions() - 1);
  if (!report.ok()) return 1;
  std::printf("audit: %llu entries checked, clean=%s\n",
              static_cast<unsigned long long>(report->entries_checked),
              report->Clean() ? "yes" : "NO");

  // --- A month later the node collects its accumulated micro-payments.
  d.clock().AdvanceSeconds(3600);
  d.chain().PumpUntilNow();
  PaymentChannelClient operator_side(&d.chain(), payment.value(),
                                     d.engine().address());
  auto withdrawal = operator_side.WithdrawOffchain();
  if (!withdrawal.ok()) return 1;
  std::printf("offchain node withdrew its service fees; channel remaining "
              "periods: %llu\n",
              static_cast<unsigned long long>(
                  subscriber.RemainingPeriods().value_or(0)));
  std::printf("\niot_marketplace OK\n");
  return 0;
}
