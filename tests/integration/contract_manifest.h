/**
 * @file
 * Pinned determinism contract: transcript hashes, trace digests and
 * state hashes recorded from a known-good build. Every refactor of
 * the scheduler, the steering matcher or the hashing helpers must
 * reproduce these values exactly; a change in simulated behaviour
 * shows up here as a mismatch, never as a silent drift.
 *
 * Regenerate only for an intended behaviour change: zero the table,
 * run ContractManifest.*, and copy the printed "actual" values back.
 */
#ifndef FLD_TESTS_INTEGRATION_CONTRACT_MANIFEST_H
#define FLD_TESTS_INTEGRATION_CONTRACT_MANIFEST_H

#include <array>
#include <cstdint>

namespace fld::contract {

/** Scenario families the fuzz-transcript sweep forces, in table
 *  column order. */
enum class Family : uint8_t {
    EthEcho,
    EthEchoPipeline, ///< EthEcho with the pipeline decoration chain
    ConnServe,
    RpcServe,
};
constexpr int kFamilies = 4;
constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kLastSeed = 50;

/** FuzzVerdict::transcript_hash per seed (rows, seed 1 first) and
 *  family (columns, Family order). */
constexpr std::array<std::array<uint64_t, kFamilies>,
                     kLastSeed - kFirstSeed + 1>
    kTranscriptHash = {{
        {0x770d17f433b8d3d9, 0xee0271a7bd0f7123,
         0x88d1287f4ec0f39f, 0x31afb7dea2d74df1}, // seed 1
        {0x2e48e783c68d1209, 0xd867a8a8fe28814a,
         0x369f7b08d643aec2, 0xe82fa4d11c55853d}, // seed 2
        {0x82417b20599576c2, 0x69a7ea09a629b3eb,
         0xeedc070e2ef5076b, 0x1aaf17e6a50dd9e2}, // seed 3
        {0x57d76ba5cf7b9ad4, 0x2c00e6256c02b9e2,
         0xd714764d20875b51, 0x8448a5e6a9839dc8}, // seed 4
        {0xf9791f696d9ae261, 0x46b17c2991a83c64,
         0xc32f999cddaa3fe2, 0xdb63c5f4cea6e0de}, // seed 5
        {0xa5f4ef9bdf773601, 0xb28af338d6a67e9c,
         0xd628cd95d5a39eb8, 0x9071d6bcc31152f3}, // seed 6
        {0xc90b3460a8c0f1e1, 0x8f66e621bd3d0ac1,
         0x5a235af0517fb932, 0xcde76a1b403bdd4e}, // seed 7
        {0x4b4fd20cb154e4ad, 0xb4b9d121a227a47c,
         0xe5988761b25ed60c, 0xdfae8ce539af8c20}, // seed 8
        {0xe02a415a63964bed, 0x4826ce6621881594,
         0x530741b1d4296440, 0xf179a5f8582b0e02}, // seed 9
        {0x35998e311cbd5274, 0x2fe83423618c9b56,
         0x5f484c76e2034243, 0x9347f52a21488ffe}, // seed 10
        {0x401bea6ef6a57fe8, 0xd3bfc2296264eded,
         0xb1269fff4eae4041, 0x449b156ed4c6312e}, // seed 11
        {0x5b28d370fa5d4054, 0x9b97b72574048a7c,
         0x9910e5a57c57c0e4, 0xdb67e908c3b528d6}, // seed 12
        {0x906d3c235a6380da, 0x6bc89d5121bd7d40,
         0xdb77173d0906aeeb, 0x90af29c95d69ee0f}, // seed 13
        {0x4137e1d6544cac39, 0xe3223cf9e64d0a60,
         0x8a436b425490aa17, 0xdb69c259c63a0614}, // seed 14
        {0x3227e050f977f51b, 0x11078455b0c4cdbb,
         0x1f56b20131cfc74c, 0xf5e90d72fb1425cb}, // seed 15
        {0x3120d0a3afa66348, 0x968f236f610db5fd,
         0x727c8fb4670fa24a, 0xd715f99518431bbb}, // seed 16
        {0x59fa7eba1f77413b, 0x4faa7d4960bb2ee9,
         0x0be905efa502f761, 0x79fd82a552a51d05}, // seed 17
        {0xd73f96eb524a91b5, 0x003184a875e545d4,
         0x06373c049c172a76, 0x5ab97faace79f473}, // seed 18
        {0xc73ab35a4f00c72e, 0x72e0cb8541c03afc,
         0xba3a4eca4514dd4f, 0xe1cfcdfc88c80f40}, // seed 19
        {0xeb9099e4fbe3dbaf, 0xe9c9503521593b05,
         0xcd30b2dd89483954, 0x7c8f2983bc8449bf}, // seed 20
        {0x39e01f49f363e1d6, 0x04c7d46da11cd4ca,
         0xc5c1ef3f0a26eb7c, 0xc62f5df310ab121e}, // seed 21
        {0x947916d0d29686d9, 0x3d3df8da884ad8ff,
         0x34b92ab507fe6830, 0xea281ecbdc533208}, // seed 22
        {0x94402162de7156b6, 0x333be908ac5cc9bc,
         0x180b17546601a24a, 0xa2acb996ad321593}, // seed 23
        {0x3aa17e1a72671b72, 0x2ee0bbed9661d1fc,
         0xb3c97e3e432a9022, 0xe029388cf8b8b06b}, // seed 24
        {0x97138d6599efc8b5, 0xa435ca2b67811fe1,
         0xeee01f4b15d6d883, 0xd1cf869725fe9b1e}, // seed 25
        {0x292f3f6f9f09022d, 0x8f56455ab053ae06,
         0x1b857419e1a4e663, 0x0b0eae53ce84c71f}, // seed 26
        {0x7e24b5568ca92fbf, 0x2ec2ba3d01d9f12b,
         0x02c3bd72a13aada8, 0x49d2144768c4b672}, // seed 27
        {0x98a8c767585350c7, 0xc578bbaef7af873a,
         0x59156039d43a4a61, 0x6ce739620428ff02}, // seed 28
        {0x7b10e0883601c5f5, 0xa261b18f9a21045c,
         0x614d9e756bc93ad8, 0x2a320aea51427374}, // seed 29
        {0xd380d11141929314, 0x3253ba85f27230e2,
         0x6ed4467643ec0a59, 0xe811e744c0527f39}, // seed 30
        {0xd270f6aa8e5254dc, 0x642319df8b6bae09,
         0x7720b8f6390aed30, 0xd93b8ba074ad03ec}, // seed 31
        {0x7ec1b11ef9422344, 0xadf2c820d4a0441b,
         0xf98ce24bec9ffcec, 0x871468aa6355d0fc}, // seed 32
        {0xdc759f5a1f789333, 0x087cfb745675e925,
         0xcdb9212ed218e467, 0xeb21d11e99f6f7b4}, // seed 33
        {0x9de28055210bd25b, 0xcb86601f96f56943,
         0x79e031d99791af5f, 0xc840bded49142a4b}, // seed 34
        {0x3cf79e5413402fcd, 0xa44704088ff2bc10,
         0x0b208e9db9438774, 0xfda937b8fce41fc6}, // seed 35
        {0x420256cd8330fc21, 0x95a74607bffe54d0,
         0xd5305403259ec67e, 0x2ca5e2e2dd1b2d9b}, // seed 36
        {0x27867e215b38ff83, 0x93c03a7a6b5cbd5c,
         0x2a468d2ffae3139a, 0xd8d8b46e5e40bb9d}, // seed 37
        {0x58a249610505e1c1, 0x2a4eafe8e4073bf5,
         0x1d1342793485bdf5, 0xcd0aae595918038c}, // seed 38
        {0xa09e5a4269636831, 0xc78e5b757e14bd4d,
         0x1c8d0a71bda2d2ff, 0x3d2ee2985f2b8c78}, // seed 39
        {0xd34346be19977225, 0x2b1f0a956d69c5b5,
         0x3b5c3657f97a9fb0, 0xaddf442ed13ac6e5}, // seed 40
        {0x006343a5b67a2618, 0xa4900d79d8612174,
         0x4687cc4e312ccfc1, 0xdd73c29d3ab9d625}, // seed 41
        {0x1101d4b6a995f529, 0x27d8a21c96e85937,
         0xe68d86bd5dae5135, 0x532d672a7b457aaf}, // seed 42
        {0x513021d2015668af, 0x3484e196d0e3878d,
         0x679f55ee38066658, 0x799b495497f8b050}, // seed 43
        {0x9a1179c24a98b1c3, 0x90687639941faa2d,
         0x0cf5adfb837a6b8e, 0xd0fddb2047e73e36}, // seed 44
        {0x34e1bc40b38d666b, 0x67d83ab21ea1e817,
         0x9b86a5bb925c8bdb, 0xd3619d4f84271ca4}, // seed 45
        {0x5c9e944dbecce655, 0xa4a60085320e1f69,
         0x0968493dca597790, 0xa5334ec7bff72942}, // seed 46
        {0xc0ac85c4962e14c6, 0x28a0096b6210f663,
         0xf0fdd17f0f027482, 0x16f7f5b7d9b3f805}, // seed 47
        {0x0550a11f23d6ed97, 0x7a9dff49f3027f93,
         0x227cd489c7002265, 0x67ddeb30b4b1398b}, // seed 48
        {0x16d214f63697589d, 0xf0856a2ead9eb816,
         0x7b0c30cbec2d5570, 0xe063242a89bdf5da}, // seed 49
        {0xdc2715503ba0af48, 0xd46570a01e9c1468,
         0x087df62b7846ff25, 0xb9da2de8c77a05d9}, // seed 50
    }};

/** sim::fnv1a64_str(Tracer::digest()) of the four stock echo
 *  scenarios that tests/nic/pipeline_golden_test.cc traces. */
constexpr uint64_t kFldEchoTraceHash = 0x5cd2da65c412227b;
constexpr uint64_t kCpuEchoRssSpreadTraceHash = 0x64b0cae93c34c11d;
constexpr uint64_t kVxlanEchoTraceHash = 0x12c3e3b2c7e03a4d;
constexpr uint64_t kMprqEchoTraceHash = 0x2a70622d9264f4c3;

/** sim::fnv1a64_str of ScenarioFuzzer::generate(seed).to_string(),
 *  folded in seed order over seeds 1..kDumpLastSeed. Pins the
 *  generator's draw order and the dump bytes of every natural mode;
 *  runs no simulation. */
constexpr uint64_t kDumpLastSeed = 200;
constexpr uint64_t kScenarioDumpFold = 0xc5394d96bbffbd39;

/** ChurnReport::state_hash of `fld_fuzz --churn` seeds 1..50 (the
 *  seed's churn_scenario run for 4x its target population). */
constexpr uint64_t kChurnLastSeed = 50;
constexpr std::array<uint64_t, kChurnLastSeed> kChurnSeedStateHash = {{
    0xb90749520fc4e151, 0x3a924e2ed95456d6, 0x314e705d2c2c6b67,
    0x6f5171eb62e878e0, 0x03e5bbd78239963d, 0x7e497ce641932fb1,
    0x260bd4fc619fabf0, 0x913be2152dc95bdd, 0x8ecb5e9f02ea7436,
    0x31e0a4e0fde48ddf, 0x9f5e824043b2a465, 0x5f970d97ccfec5c6,
    0x3def2da0cc9a08b3, 0x836577644dacc2dc, 0xaddb0ca24045f896,
    0xee4390ede0aeb55f, 0xe415e25fb00596ce, 0x367f4a89789c9a40,
    0x8f18066b2fedb464, 0xfefb4506bc297576, 0x8874c8618037ca13,
    0xb1891cfe6fb44850, 0xcfe7320c8ab90e94, 0x3e77143d45ae9621,
    0x794ecf4ad97d5b83, 0x8649e3dee0472c33, 0xa9ea4384033dd0cc,
    0xd836565fa43f0891, 0xf526e90dc7b12fee, 0x96eb10e5094d1fb6,
    0x269264badf34ddcf, 0x58f04919e58155aa, 0x45c1a2fa78930979,
    0x1f29a6ba6176ba78, 0x7db6588b08b4530a, 0x0a3396c033f450a2,
    0x6e3c11416b8f7696, 0x1708c84db5ef9add, 0xe36980a8a56024a4,
    0x29742e321df5460f, 0x87a292e033547b25, 0xda7b32a1ecadb697,
    0x4f7692687c04736b, 0xfa6dfb7644911792, 0x18a1dc44f3cbd883,
    0xdc8a58d25cfcc406, 0x63601b71d47c7ce0, 0xe05801bc64fd0a69,
    0xa7e33d428a259141, 0x44743a7b11e8460f,
}};

/** Serving-harness runs the pins below cover, in table row order:
 *  both ARP caches pre-seeded, ARP resolved across the testbed, and
 *  wire faults targeted at one client flow. */
enum class ServeCase : uint8_t {
    PreseededArp,
    ResolvedArp,
    TargetedFaults,
};
constexpr int kServeCases = 3;

/** One harness run's hashes: its state_hash and its app-pair hash
 *  (FastPathReport::flow_hash or RpcReport::digest_hash). */
struct ServePin
{
    uint64_t state_hash;
    uint64_t app_hash;
};

/** run_fastpath_scenario at fastpath_diff_test's small_cfg shape
 *  (fastpath_fault_test's faulted_cfg shape for TargetedFaults);
 *  rows in ServeCase order, columns FLD then CPU. */
constexpr std::array<std::array<ServePin, 2>, kServeCases>
    kByteStreamServePin = {{
        {{{0x8460361f83e39549, 0x84d000b397663911},
          {0x7228b4db15253fd9, 0x84d000b397663911}}},
        {{{0x7608b1433b147db5, 0x84d000b397663911},
          {0x807040620f0e7f78, 0x84d000b397663911}}},
        {{{0x844771d202abc6f2, 0x8ecb1c82eb66f4e5},
          {0x683df6f13cf33a46, 0x8ecb1c82eb66f4e5}}},
    }};

/** run_rpc_scenario at rpc_diff_test's small_cfg shape (its
 *  fault-overlap point for TargetedFaults); same layout. */
constexpr std::array<std::array<ServePin, 2>, kServeCases>
    kRpcServePin = {{
        {{{0xdf2c7922cf02bac6, 0xc7517103755859e2},
          {0x675b4d81c40b9c79, 0xc7517103755859e2}}},
        {{{0xb4e81ab9eadf39d3, 0xc7517103755859e2},
          {0xe29cfb657c4d8eab, 0xc7517103755859e2}}},
        {{{0x1592b58c02006ec3, 0xc7517103755859e2},
          {0x86fd11ae27ddfe18, 0xc7517103755859e2}}},
    }};

/** FLD-R runs the pins below cover, in table row order: 1 KiB echo
 *  messages posted open loop, remote and local, and ZUC requests from
 *  a verifying CryptoPerfClient, remote. */
enum class FldrCase : uint8_t {
    EchoRemote,
    EchoLocal,
    ZucRemote,
};
constexpr int kFldrCases = 3;

/** One FLD-R run: sim::fnv1a64_str of its causal trace digest, plus
 *  the end time and executed event count, which the digest omits. */
struct FldrPin
{
    uint64_t trace_hash;
    uint64_t end_ps;
    uint64_t events;
};

/** Rows in FldrCase order. */
constexpr std::array<FldrPin, kFldrCases> kFldrPin = {{
    {0xfad512e13362b482, 0xb61f8e0f, 0x1db95},
    {0xfe2abaf50eb46dc0, 0xb612de86, 0x17fab},
    {0x273ba704c38fc5d6, 0x3ef79591, 0xb93f},
}};

/** ChurnReport::state_hash of the reference churn run. */
constexpr uint64_t kChurnStateHash = 0xc69426c2f2e0d1cd;
/** HeavyHitterSketch::state_hash of the reference update stream. */
constexpr uint64_t kSketchStateHash = 0x02b02de90b45bb22;

} // namespace fld::contract

#endif // FLD_TESTS_INTEGRATION_CONTRACT_MANIFEST_H
