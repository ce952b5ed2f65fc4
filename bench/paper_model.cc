/**
 * @file
 * bench_paper rows that evaluate models and constants only, no
 * simulation: Tables 1-5, Figure 4 and Figure 7a.
 */
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "bench/paper.h"
#include "fld/flexdriver.h"
#include "model/area.h"
#include "model/memory_model.h"
#include "model/perf_model.h"
#include "pcie/fabric.h"

namespace fld::bench::paper {

namespace {

/** The prototype FLD's on-die memory structures (§6) and their bytes. */
std::vector<std::pair<std::string, uint64_t>>
prototype_on_die()
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq);
    pcie::PortId port = fabric.add_port("fld", 50.0, 0);
    core::FlexDriver fld("fld", eq, fabric, port, 0x8000'0000,
                         0x4000'0000);
    fabric.attach(port, &fld, 0x8000'0000, core::FlexDriver::kBarSize);
    return fld.mem_budget().items();
}

/** One Table 3 line; records both sides' bytes as `<sw|fld>.<key>`. */
void
table3_row(TextTable& t, Report& r, const char* key, const char* desc,
           const char* var, double sw, double fl, const char* paper_sw,
           const char* paper_fld, const char* paper_ratio)
{
    std::string ratio =
        fl > 0 ? format_ratio(sw / fl) : std::string("-");
    t.row({desc, var, format_bytes(sw),
           fl > 0 ? format_bytes(fl) : "-", ratio, paper_sw, paper_fld,
           paper_ratio});
    r.real(std::string("sw.") + key + "_bytes", sw, "B");
    r.real(std::string("fld.") + key + "_bytes", fl, "B");
}

/** Count non-blank, non-pure-comment lines of a file (cloc-like):
 *  lines starting `//` or `*` (doxygen continuations) and block
 *  comments opening a line are skipped. */
uint64_t
count_loc(const std::filesystem::path& path)
{
    std::ifstream in(path);
    uint64_t loc = 0;
    bool in_block_comment = false;
    for (std::string line; std::getline(in, line);) {
        size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos)
            continue;
        std::string_view s = std::string_view(line).substr(start);
        if (in_block_comment)
            in_block_comment = s.find("*/") == s.npos;
        else if (s.starts_with("/*"))
            in_block_comment = s.find("*/", 2) == s.npos;
        else
            loc += !s.starts_with("//") && !s.starts_with("*");
    }
    return loc;
}

/** @p text as a report-name component: lower case, runs of other
 *  characters as one `_`, any `[..]`/`(..)` suffix dropped. */
std::string
slug(const std::string& text)
{
    std::string out;
    for (char c : text.substr(0, text.find_first_of("[("))) {
        if (std::isalnum(uint8_t(c)))
            out += char(std::tolower(uint8_t(c)));
        else if (!out.empty() && out.back() != '_')
            out += '_';
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

} // namespace

void
table1(Run& run)
{
    banner("Table 1: accelerator networking architectures",
           "FlexDriver §3");

    TextTable t;
    t.header({"Category", "Solution", "Gbps", "LUT", "FF", "BRAM",
              "URAM", "Stateless", "Tunneling", "HW transport"});
    for (const auto& r : model::table1_rows()) {
        t.row({r.category, r.solution, r.gbps,
               strfmt("%.1fK", r.luts_k), strfmt("%.1fK", r.ffs_k),
               strfmt("%d", r.bram), r.uram ? strfmt("%d", r.uram) : "",
               model::support_str(r.stateless),
               model::support_str(r.tunneling),
               model::support_str(r.transport)});
        std::string name = slug(r.solution) + "_" + r.gbps + "G.";
        run.report.real(name + "luts_k", r.luts_k, "kLUT");
        run.report.real(name + "ffs_k", r.ffs_k, "kFF");
        run.report.count(name + "bram", uint64_t(r.bram), "blocks");
        run.report.count(name + "uram", uint64_t(r.uram), "blocks");
    }
    t.print();

    note("area values are the paper's reported numbers; this "
         "reproduction validates the FLD feature column by "
         "construction (stateless offloads, tunneling and "
         "hardware RDMA transport all exercised in tests)");

    // What we *can* measure: the instantiated FLD on-die memory.
    std::printf("\nInstantiated FLD on-die memory (prototype config, "
                "§6):\n");
    TextTable m;
    m.header({"structure", "bytes"});
    uint64_t total = 0;
    for (const auto& [name, bytes] : prototype_on_die()) {
        m.row({name, format_bytes(double(bytes))});
        run.report.count("on_die." + slug(name), bytes, "B");
        total += bytes;
    }
    m.separator();
    m.row({"total", format_bytes(double(total))});
    m.print();
    run.report.count("on_die.total", total, "B");
}

void
table2(Run& run)
{
    banner("Table 2a: memory analysis parameters", "FlexDriver §4.3");

    model::MemoryParams p; // Table 2a defaults
    model::DerivedParams d = model::derive(p);

    TextTable t;
    t.header({"Description", "Variable", "Paper", "Reproduced"});
    Report& r = run.report;
    // One line of the table, its value recorded as @p name.
    auto row = [&](const char* desc, const char* var, const char* paper,
                   std::string shown, const char* name, double v,
                   const char* unit) {
        t.row({desc, var, paper, std::move(shown)});
        r.real(name, v, unit);
    };
    row("Bandwidth", "B", "100 Gbps", format_gbps(p.bandwidth_gbps),
        "bandwidth_gbps", p.bandwidth_gbps, "Gbps");
    row("Min./max. packet size", "Mmin/Mmax", "256 B / 16 KiB",
        strfmt("%u B / %s", p.min_packet,
               format_bytes(p.max_packet).c_str()),
        "min_packet_bytes", p.min_packet, "B");
    r.real("max_packet_bytes", p.max_packet, "B");
    row("Lifetime", "Lrx/Ltx", "5 / 25 us",
        strfmt("%.0f / %.0f us", p.lifetime_rx_us, p.lifetime_tx_us),
        "lifetime_rx_us", p.lifetime_rx_us, "us");
    r.real("lifetime_tx_us", p.lifetime_tx_us, "us");
    row("No. transmit queues", "Nq", "512", strfmt("%u", p.num_queues),
        "num_queues", p.num_queues, "count");
    row("Max. packet rate", "R", "45 Mpps",
        strfmt("%.1f Mpps", d.packet_rate_mpps), "packet_rate_mpps",
        d.packet_rate_mpps, "Mpps");
    row("Min. TX descriptors", "Ntxdesc", "1133", strfmt("%u", d.n_txdesc),
        "n_txdesc", d.n_txdesc, "count");
    row("Min. RX descriptors", "Nrxdesc", "227", strfmt("%u", d.n_rxdesc),
        "n_rxdesc", d.n_rxdesc, "count");
    row("TX bandwidth x delay", "Stxbdp", "305 KiB", format_bytes(d.s_txbdp),
        "s_txbdp_bytes", d.s_txbdp, "B");
    row("RX bandwidth x delay", "Srxbdp", "61 KiB", format_bytes(d.s_rxbdp),
        "s_rxbdp_bytes", d.s_rxbdp, "B");
    t.print();

    banner("Table 2b: descriptor sizes", "FlexDriver §4.3");
    TextTable b;
    b.header({"Description", "Software", "FLD"});
    b.row({"Tx. descriptor size", "64 B", "8 B"});
    b.row({"Rx. descriptor size", "16 B", "- (host memory)"});
    b.row({"Completion queue entry", "64 B", "15 B"});
    b.row({"Producer index", "4 B", "4 B"});
    b.print();
}

void
table3(Run& run)
{
    banner("Table 3: driver memory, software vs FLD", "FlexDriver §5.2");

    model::MemoryParams p;
    model::MemoryBreakdown sw = model::software_memory(p);
    model::MemoryBreakdown fld = model::fld_memory(p);

    TextTable t;
    t.header({"Description", "Var", "Software", "FLD", "Shrink",
              "(paper SW)", "(paper FLD)", "(paper shrink)"});
    Report& r = run.report;
    table3_row(t, r, "txq", "Tx. rings size", "S_txq", sw.txq, fld.txq,
               "64 MiB", "32 KiB", "x2080");
    table3_row(t, r, "txdata", "Tx. buffer size", "S_txdata", sw.txdata,
               fld.txdata, "17.7 MiB", "643 KiB", "x28.2");
    table3_row(t, r, "rxdata", "Rx. buffer size", "S_rxdata", sw.rxdata,
               fld.rxdata, "3.5 MiB", "122 KiB", "x29.8");
    table3_row(t, r, "cq", "Completion queue size", "S_cq", sw.cq, fld.cq,
               "144 KiB", "33.75 KiB", "x4.27");
    table3_row(t, r, "srq", "Rx. ring size", "S_srq", sw.srq, fld.srq,
               "4 KiB", "-", "-");
    table3_row(t, r, "pi", "Producer index size", "S_pitot", sw.pi, fld.pi,
               "2052 B", "2052 B", "x1");
    t.separator();
    table3_row(t, r, "total", "Total", "", sw.total, fld.total, "85.3 MiB",
               "832.7 KiB", "x105");
    t.print();

    note(strfmt("reproduced shrink ratio: x%.1f (paper: x105)",
                sw.total / fld.total));
}

void
figure4(Run& run)
{
    banner("Figure 4: memory scaling, software vs FLD",
           "FlexDriver §5.2.1");

    TextTable t;
    t.header({"Line rate", "Queues", "Software", "FLD", "Shrink",
              "FLD fits XCKU15P?"});
    for (uint32_t queues : {512u, 1024u, 2048u}) {
        for (double gbps : {25.0, 50.0, 100.0, 200.0, 400.0}) {
            model::MemoryParams p;
            p.bandwidth_gbps = gbps;
            p.num_queues = queues;
            model::MemoryBreakdown sw = model::software_memory(p);
            model::MemoryBreakdown fl = model::fld_memory(p);
            t.row({format_gbps(gbps), strfmt("%u", queues),
                   format_bytes(sw.total), format_bytes(fl.total),
                   format_ratio(sw.total / fl.total),
                   fl.total <= double(core::kXcku15pBytes) ? "yes"
                                                           : "NO"});
            std::string name = strfmt("%gG_%uq.", gbps, queues);
            run.report.real(name + "sw_bytes", sw.total, "B");
            run.report.real(name + "fld_bytes", fl.total, "B");
        }
        t.separator();
    }
    t.print();
    run.report.count("xcku15p_bytes", core::kXcku15pBytes, "B");
    note(strfmt("XCKU15P on-chip capacity: %s",
                format_bytes(double(core::kXcku15pBytes)).c_str()));
    note("paper shape: FLD stays on-chip through 400 Gbps and "
         "2048 queues; the software layout exceeds the FPGA by "
         "orders of magnitude");
}

void
table4(Run& run)
{
    banner("Table 4: software lines of code", "FlexDriver §6");

    // The module each of the paper's components maps to, in the
    // order of model::table4_rows().
    static const char* const kModules[][2] = {
        {"src/runtime", "runtime"},
        {"src/driver", "driver"},
        {"src/apps (scenarios)", "apps"},
        {"src/fld", "fld"},
        {"src/accel (protocol)", "accel"},
        {"src/crypto", "crypto"},
    };
    TextTable t;
    t.header({"Paper component", "Paper LOC", "Reproduction module",
              "Repro LOC"});
    for (size_t i = 0; i < std::size(kModules); ++i) {
        const model::SoftwareLoc& paper = model::table4_rows().at(i);
        const char* dir = kModules[i][1];
        // Lines of every .cc and .h file directly in the module.
        uint64_t loc = 0;
        std::error_code ec;
        for (const auto& e : std::filesystem::directory_iterator(
                 FLD_SOURCE_DIR "/src/" + std::string(dir), ec))
            if (e.path().extension() == ".cc" || e.path().extension() == ".h")
                loc += count_loc(e.path());
        if (loc == 0) {
            std::fprintf(stderr, "table4: no lines counted in %s/src/%s\n",
                         FLD_SOURCE_DIR, dir);
            run.failed = true;
        }
        t.row({paper.component, strfmt("%d", paper.loc), kModules[i][0],
               strfmt("%llu", (unsigned long long)loc)});
        run.report.count(std::string(dir) + ".paper_loc",
                         uint64_t(paper.loc), "lines");
        run.report.real(std::string(dir) + ".repro_loc", double(loc),
                        "lines", Gate::None);
    }
    t.print();
    note("the mapping is approximate: this reproduction's module split "
         "differs from the authors' code base; the comparison shows "
         "both are a few thousand lines per component");
}

void
table5(Run& run)
{
    banner("Table 5: hardware utilization and LOC", "FlexDriver §6");

    TextTable t;
    t.header({"Module", "Clk (MHz)", "LUT", "FF", "BRAM", "URAM",
              "HDL LOC"});
    for (const auto& r : model::table5_rows()) {
        t.row({r.module, strfmt("%d", r.clock_mhz),
               strfmt("%.0fK", r.luts_k), strfmt("%.0fK", r.ffs_k),
               strfmt("%d", r.bram), r.uram ? strfmt("%d", r.uram) : "",
               r.loc_k ? strfmt("%dK", r.loc_k) : ""});
        std::string name = slug(r.module) + ".";
        run.report.count(name + "clock_mhz", uint64_t(r.clock_mhz),
                         "MHz");
        run.report.real(name + "luts_k", r.luts_k, "kLUT");
        run.report.real(name + "ffs_k", r.ffs_k, "kFF");
        run.report.count(name + "bram", uint64_t(r.bram), "blocks");
        run.report.count(name + "uram", uint64_t(r.uram), "blocks");
        run.report.count(name + "loc_k", uint64_t(r.loc_k), "klines");
    }
    t.print();

    // Cross-check: FLD's 35 BRAM + 44 URAM on the XCKU15P is about
    // 35*4.5 KiB + 44*36 KiB = 1.7 MiB of addressable memory; our
    // instantiated on-die budget must fit well inside that.
    uint64_t on_die = 0;
    for (const auto& item : prototype_on_die())
        on_die += item.second;
    double fld_ram_bytes = 35 * 4.5 * 1024 + 44 * 36.0 * 1024;
    std::printf("\nFLD BRAM+URAM capacity (paper row): %s; "
                "instantiated on-die state: %s -> %s\n",
                format_bytes(fld_ram_bytes).c_str(),
                format_bytes(double(on_die)).c_str(),
                on_die < fld_ram_bytes ? "fits (consistent with Table 5)"
                                       : "DOES NOT FIT");
    run.report.real("fld_ram_capacity_bytes", fld_ram_bytes, "B");
    run.report.count("on_die_bytes", on_die, "B");
}

void
figure7a(Run& run)
{
    banner("Figure 7a: PCIe (FLD) vs raw Ethernet model",
           "FlexDriver §8.1");

    struct Config
    {
        const char *name, *key;
        double eth, pcie;
    };
    const Config configs[] = {
        {"25 GbE / 50G PCIe (remote)", "remote", 25.0, 50.0},
        {"50 GbE / 50G PCIe (local)", "local", 50.0, 50.0},
        {"100 GbE / 100G PCIe", "100g", 100.0, 100.0},
    };

    for (const Config& c : configs) {
        std::printf("\n-- %s --\n", c.name);
        model::PerfModelParams p;
        p.eth_gbps = c.eth;
        p.pcie_gbps = c.pcie;

        TextTable t;
        t.header({"Frame B", "Ethernet line", "FLD PCIe bound",
                  "FLD expected", "FLD/line"});
        for (uint32_t size :
             {64u, 128u, 256u, 512u, 1024u, 1500u, 4096u, 16384u}) {
            double line = model::eth_goodput_gbps(c.eth, size);
            double pcie = model::fld_pcie_bound_gbps(p, size);
            double expect = model::fld_expected_gbps(p, size);
            t.row({strfmt("%u", size), format_gbps(line),
                   format_gbps(pcie), format_gbps(expect),
                   strfmt("%.0f%%", 100.0 * expect / line)});
            std::string name = strfmt("%s_%uB.", c.key, size);
            run.report.real(name + "line_gbps", line, "Gbps");
            run.report.real(name + "pcie_bound_gbps", pcie, "Gbps");
            run.report.real(name + "expected_gbps", expect, "Gbps");
        }
        t.print();
    }
    note("paper shape: the 25 GbE configuration meets line "
         "rate from small packets up; matched-rate "
         "configurations approach line rate as the per-packet "
         "PCIe control traffic amortizes");
}

} // namespace fld::bench::paper
