// DApp-logging-as-a-service (paper §4.5): full lifecycle of the Payment
// contract's streaming subscription — deposit, start, periodic provider
// withdrawals, an under-funded stretch (DepositInsufficient), a top-up,
// and a clean termination with both sides settled.
//
// Build & run:  ./build/examples/logging_as_a_service

#include <cstdio>

#include "shard/sharded_engine.h"

using namespace wedge;

namespace {

void PrintEvents(const Receipt& receipt) {
  for (const LogEvent& ev : receipt.events) {
    std::printf("    event: %s\n", ev.name.c_str());
  }
}

}  // namespace

int main() {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = 4;
  auto deployment = ShardedDeployment::Create(config);
  if (!deployment.ok()) return 1;
  ShardedDeployment& d = **deployment;
  PublisherClient publisher = d.MakePublisher(/*tenant=*/0);

  // Channel terms: 100 gwei per 10-minute period, up to 12 overdue
  // periods (2 hours) of grace.
  auto payment = d.CreatePaymentChannel(600, GweiToWei(100), 12);
  if (!payment.ok()) return 1;
  PaymentChannelClient dapp(&d.chain(), payment.value(),
                            publisher.address());
  PaymentChannelClient provider(&d.chain(), payment.value(),
                                d.engine().address());

  auto elapse = [&](int64_t seconds) {
    d.clock().AdvanceSeconds(seconds);
    d.chain().PumpUntilNow();
  };

  // --- Subscribe: prepay ~8 hours (48 periods).
  if (!dapp.Deposit(GweiToWei(4800)).ok()) return 1;
  if (!dapp.StartPayment().ok()) return 1;
  std::printf("subscription live: %llu prepaid periods\n",
              static_cast<unsigned long long>(
                  dapp.RemainingPeriods().value_or(0)));

  // --- The DApp actually uses the service while time passes.
  auto r = publisher.Publish(publisher.MakeRequests({
      {ToBytes("log/1"), ToBytes("service in use")},
      {ToBytes("log/2"), ToBytes("more data")},
      {ToBytes("log/3"), ToBytes("even more")},
      {ToBytes("log/4"), ToBytes("batch full")},
  }));
  if (!r.ok()) return 1;

  // --- 2 hours later the provider collects accrued fees.
  elapse(2 * 3600);
  auto w1 = provider.WithdrawOffchain();
  if (!w1.ok()) return 1;
  std::printf("provider withdrawal #1 after 2h:\n");
  PrintEvents(w1.value());

  // --- 7 more hours: the channel runs dry (but within the grace limit).
  elapse(7 * 3600);
  auto update = dapp.UpdateStatus();
  if (!update.ok()) return 1;
  std::printf("after 9h total (deposit exhausted):\n");
  PrintEvents(update.value());

  // --- The DApp tops up before the grace limit is violated.
  if (!dapp.Deposit(GweiToWei(6000)).ok()) return 1;
  auto update2 = dapp.UpdateStatus();
  if (!update2.ok()) return 1;
  std::printf("after top-up:\n");
  PrintEvents(update2.value());
  std::printf("  remaining periods: %llu\n",
              static_cast<unsigned long long>(
                  dapp.RemainingPeriods().value_or(0)));

  // --- Graceful shutdown: terminate settles both sides.
  Wei provider_before = d.chain().BalanceOf(d.engine().address());
  auto term = dapp.Terminate();
  if (!term.ok()) return 1;
  std::printf("terminated: provider received %s ETH total for the "
              "subscription\n",
              WeiToEthString(d.chain().BalanceOf(d.engine().address()) -
                             provider_before)
                  .c_str());
  std::printf("channel balance now: %s wei (fully settled)\n",
              d.chain().BalanceOf(payment.value()).ToDecimal().c_str());
  std::printf("\nlogging_as_a_service OK\n");
  return 0;
}
