// reed_keymanagerd — the REED key manager as a standalone TCP daemon.
//
//   reed_keymanagerd --port 7001 --state km.key --pubkey-out km.pub
//                    [--rsa-bits 1024] [--rate-limit N --burst B]
//
// On first start it generates the system-wide RSA key pair and persists it
// to --state; subsequent starts (or replicas for availability) reload the
// same pair. The public key is written to --pubkey-out for distribution to
// clients.
#include <csignal>
#include <cstdio>

#include "keymanager/key_manager.h"
#include "net/async_server.h"
#include "tools/cli_util.h"

using namespace reed;

int main(int argc, char** argv) {
  try {
    cli::Args args(argc, argv);
    std::uint16_t port =
        static_cast<std::uint16_t>(args.GetInt("port", 7001));
    std::string state_path = args.Get("state", "km.key");
    std::string pub_path = args.Get("pubkey-out", "km.pub");

    keymanager::KeyManager::Options opts;
    opts.rsa_bits = args.GetInt("rsa-bits", 1024);
    opts.rate_limit_per_sec = static_cast<double>(args.GetInt("rate-limit", 0));
    opts.rate_limit_burst = static_cast<double>(
        args.GetInt("burst", static_cast<std::uint64_t>(opts.rate_limit_per_sec)));

    rsa::RsaKeyPair keys;
    std::ifstream existing(state_path, std::ios::binary);
    if (existing.good()) {
      existing.close();
      keys = rsa::DeserializeKeyPair(Secret(cli::ReadFile(state_path)));
      std::printf("loaded key pair from %s (%zu-bit modulus)\n",
                  state_path.c_str(), keys.pub.n.BitLength());
    } else {
      std::printf("generating %zu-bit system key pair...\n", opts.rsa_bits);
      crypto::ChaChaRng rng(crypto::SecureRandom::Generate(32));
      keys = rsa::GenerateKeyPair(opts.rsa_bits, rng);
      // --state is this daemon's persistent secret store by design.
      cli::WriteFile(state_path,
                     Declassify(rsa::SerializeKeyPair(keys),
                                "system RSA key pair persisted to --state"));
    }
    cli::WriteFile(pub_path, rsa::SerializePublicKey(keys.pub));

    keymanager::KeyManager manager(std::move(keys), opts);
    // Same front end and loop/worker counts as reed_serverd's defaults.
    net::AsyncServer::Options net_opts;
    net_opts.loops = 2;
    net_opts.workers = 4;
    net::AsyncServer server(
        port, [&manager](ByteSpan req) { return manager.HandleRequest(req); },
        net_opts);
    std::printf("reed_keymanagerd listening on 127.0.0.1:%u "
                "(public key: %s, rate limit: %s)\n",
                server.port(), pub_path.c_str(),
                opts.rate_limit_per_sec > 0 ? "on" : "off");
    std::fflush(stdout);
    server.Wait();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "reed_keymanagerd: %s\n", e.what());
    return 1;
  }
}
