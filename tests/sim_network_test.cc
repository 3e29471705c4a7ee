#include "net/sim_network.h"
#include "net/wire.h"

#include <gtest/gtest.h>

namespace wedge {
namespace {

TEST(SimLinkTest, DelayIncludesTransmission) {
  NetworkConfig config;
  config.base_latency = 1000;
  config.jitter = 0;
  config.bandwidth_bytes_per_sec = 1'000'000;  // 1 MB/s.
  SimLink link(config, 1);
  EXPECT_EQ(link.DelayFor(0), 1000);
  // 1 MB at 1 MB/s = 1 second.
  EXPECT_EQ(link.DelayFor(1'000'000), 1000 + kMicrosPerSecond);
}

TEST(SimLinkTest, JitterStaysBounded) {
  NetworkConfig config;
  config.base_latency = 1000;
  config.jitter = 100;
  SimLink link(config, 2);
  for (int i = 0; i < 200; ++i) {
    Micros d = link.DelayFor(0);
    EXPECT_GE(d, 900);
    EXPECT_LE(d, 1100);
  }
}

TEST(SimLinkTest, DropProbability) {
  NetworkConfig config;
  config.drop_probability = 0.0;
  SimLink reliable(config, 3);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(reliable.ShouldDrop());

  config.drop_probability = 1.0;
  SimLink lossy(config, 4);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(lossy.ShouldDrop());

  config.drop_probability = 0.5;
  SimLink coin(config, 5);
  int drops = 0;
  for (int i = 0; i < 1000; ++i) drops += coin.ShouldDrop() ? 1 : 0;
  EXPECT_GT(drops, 400);
  EXPECT_LT(drops, 600);
}

TEST(MessageBusTest, DeliversAfterDelay) {
  SimClock clock(0);
  NetworkConfig config;
  config.base_latency = 500;
  config.jitter = 0;
  MessageBus bus(&clock, config, 1);

  std::vector<std::string> received;
  bus.RegisterEndpoint("server", [&](const std::string& from, const Bytes& b) {
    received.push_back(from + ":" + ToString(b));
  });

  bus.Send("client", "server", ToBytes("hello"));
  EXPECT_EQ(bus.InFlight(), 1u);
  EXPECT_EQ(bus.DeliverDue(), 0);  // Too early.
  clock.Advance(600);
  EXPECT_EQ(bus.DeliverDue(), 1);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "client:hello");
  EXPECT_EQ(bus.InFlight(), 0u);
}

TEST(MessageBusTest, StepAdvancesToNextDelivery) {
  SimClock clock(0);
  NetworkConfig config;
  config.base_latency = 1000;
  config.jitter = 0;
  MessageBus bus(&clock, config, 1);
  int count = 0;
  bus.RegisterEndpoint("sink",
                       [&](const std::string&, const Bytes&) { ++count; });
  bus.Send("a", "sink", ToBytes("1"));
  clock.Advance(10);
  bus.Send("a", "sink", ToBytes("2"));
  EXPECT_TRUE(bus.Step());
  EXPECT_GE(count, 1);
  while (bus.Step()) {
  }
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(bus.Step());  // Nothing left.
}

TEST(MessageBusTest, UnknownEndpointDropsSilently) {
  SimClock clock(0);
  MessageBus bus(&clock, NetworkConfig{}, 1);
  bus.Send("a", "nobody", ToBytes("x"));
  clock.Advance(10'000'000);
  EXPECT_EQ(bus.DeliverDue(), 0);
  EXPECT_EQ(bus.InFlight(), 0u);
}

TEST(MessageBusTest, OmissionAttackDropsMessages) {
  SimClock clock(0);
  NetworkConfig config;
  config.drop_probability = 1.0;  // Total omission.
  MessageBus bus(&clock, config, 1);
  int count = 0;
  bus.RegisterEndpoint("sink",
                       [&](const std::string&, const Bytes&) { ++count; });
  Result<Micros> sent = bus.Send("a", "sink", ToBytes("gone"));
  EXPECT_FALSE(sent.ok());
  EXPECT_EQ(sent.status().code(), Code::kUnavailable);
  clock.Advance(10'000'000);
  bus.DeliverDue();
  EXPECT_EQ(count, 0);
}

TEST(SignedEnvelopeTest, CreateAndVerify) {
  KeyPair key = KeyPair::FromSeed(42);
  SignedEnvelope env = SignedEnvelope::Create(key, ToBytes("payload"));
  EXPECT_EQ(env.sender, key.address());
  EXPECT_TRUE(env.Verify());
}

TEST(SignedEnvelopeTest, TamperedPayloadFails) {
  KeyPair key = KeyPair::FromSeed(42);
  SignedEnvelope env = SignedEnvelope::Create(key, ToBytes("payload"));
  env.payload[0] ^= 0xFF;
  EXPECT_FALSE(env.Verify());
}

TEST(SignedEnvelopeTest, SpoofedSenderFails) {
  KeyPair key = KeyPair::FromSeed(42);
  SignedEnvelope env = SignedEnvelope::Create(key, ToBytes("payload"));
  env.sender = KeyPair::FromSeed(43).address();
  EXPECT_FALSE(env.Verify());
}

TEST(SignedEnvelopeTest, SerializationRoundTrip) {
  KeyPair key = KeyPair::FromSeed(7);
  SignedEnvelope env = SignedEnvelope::Create(key, ToBytes("wire me"));
  auto back = SignedEnvelope::Deserialize(env.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->sender, env.sender);
  EXPECT_EQ(back->payload, env.payload);
  EXPECT_TRUE(back->Verify());
  EXPECT_FALSE(SignedEnvelope::Deserialize(Bytes(10, 0)).ok());
}

}  // namespace
}  // namespace wedge
