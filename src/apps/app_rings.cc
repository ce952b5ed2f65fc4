#include "apps/app_rings.h"

#include <cstring>

namespace fld::apps {

AppRings::AppRings(sim::EventQueue& eq, driver::FastPath& fp,
                   uint32_t tx_entries, uint32_t rx_entries,
                   std::function<void()> service)
    : eq_(eq), fp_(fp), service_(std::move(service)),
      app_(fp.register_app(tx_entries, rx_entries,
                           [this] { on_notify(); })),
      tx_(fp.tx_ring(app_)), rx_(fp.rx_ring(app_)),
      tx_arena_(fp.tx_arena(app_)), rx_arena_(fp.rx_arena(app_))
{
}

void
AppRings::listen(uint16_t port)
{
    fp_.listen(port, app_);
}

void
AppRings::on_notify()
{
    // Serve in a fresh event at the same tick, not inside the notify:
    // the stack finishes its delivery first, repeat notifies coalesce
    // into one pass, and the same-tick event order (which the digests
    // and pins record) stays as it is.
    if (service_pending_)
        return;
    service_pending_ = true;
    eq_.schedule_in(0, [this] {
        service_pending_ = false;
        service_();
    });
}

std::optional<driver::CtrlMsg>
AppRings::next_ctrl()
{
    return fp_.poll_ctrl(app_);
}

bool
AppRings::post(driver::RingDesc d, const uint8_t* bytes)
{
    d.addr = uint64_t(tx_.next_slot()) * fp_.slot_bytes();
    if (!tx_.post(d))
        return false;
    std::memcpy(tx_arena_ + d.addr, bytes, d.len);
    posted_ = true;
    return true;
}

bool
AppRings::flush()
{
    if (!posted_)
        return false;
    posted_ = false;
    fp_.doorbell(app_);
    return true;
}

} // namespace fld::apps
