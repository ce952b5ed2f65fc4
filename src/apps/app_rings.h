/**
 * @file
 * The application side of the host fast path's ring ABI.
 *
 * FastPath (driver/fastpath.h) is the stack side of a flextcp-style
 * ring ABI (SNIPPETS.md snippet 1); AppRings is its application side,
 * as libTAS is to TAS. It owns the mechanism every fast-path app
 * needs once:
 *  - registration (register_app, listen);
 *  - the service pass: notifies coalesce into one scheduled event at
 *    the same tick, never ring work inside the stack's callback;
 *  - the ctrl poll and the RX drain (pop, hand over the descriptor
 *    and its arena bytes, release, one rx_doorbell per drain that
 *    released anything);
 *  - the TX post (claim a slot, then copy the bytes into the arena)
 *    and flush(), the doorbell for whatever this pass posted.
 * The apps keep their policy: which connection a descriptor belongs
 * to, how to chunk and tag, and when to retry.
 */
#ifndef FLD_APPS_APP_RINGS_H
#define FLD_APPS_APP_RINGS_H

#include <cstdint>
#include <functional>
#include <optional>

#include "driver/fastpath.h"
#include "sim/event_queue.h"

namespace fld::apps {

class AppRings
{
  public:
    /** Registers an app with rings of the given power-of-two sizes;
     *  @p service runs once per tick in which the stack notified. */
    AppRings(sim::EventQueue& eq, driver::FastPath& fp,
             uint32_t tx_entries, uint32_t rx_entries,
             std::function<void()> service);
    AppRings(const AppRings&) = delete; ///< the notify holds this
    AppRings& operator=(const AppRings&) = delete;

    /** Accept passive connections on @p port. */
    void listen(uint16_t port);

    uint32_t app_id() const { return app_; }
    uint32_t slot_bytes() const { return fp_.slot_bytes(); }

    /** Next slow-path message, if any. */
    std::optional<driver::CtrlMsg> next_ctrl();

    /**
     * Pop every RX descriptor, calling @p on_desc(desc, arena bytes)
     * before releasing its slot; rings rx_doorbell once if anything
     * was released.
     */
    template <class F>
    void drain(F&& on_desc)
    {
        bool released = false;
        while (!rx_.empty()) {
            driver::RingDesc d;
            uint32_t slot = rx_.pop(&d);
            on_desc(d, rx_arena_ + d.addr);
            rx_.release(slot);
            released = true;
        }
        if (released)
            fp_.rx_doorbell(app_); // freed slots: unpark deliveries
    }

    bool tx_full() const { return tx_.full(); }

    /**
     * Claim the next TX slot for @p d (its addr is set here) and copy
     * d.len bytes from @p bytes into the slot's arena buffer. A
     * refused claim returns false and leaves the arena untouched: the
     * slot may still back an unconsumed descriptor.
     */
    bool post(driver::RingDesc d, const uint8_t* bytes);

    /** Ring the TX doorbell if anything was posted since the last
     *  flush; returns whether it rang. The stack consumes and
     *  releases every posted slot at the doorbell. */
    bool flush();

  private:
    void on_notify();

    sim::EventQueue& eq_;
    driver::FastPath& fp_;
    std::function<void()> service_;
    uint32_t app_;
    driver::DescRing& tx_;
    driver::DescRing& rx_;
    uint8_t* tx_arena_;
    const uint8_t* rx_arena_;
    bool service_pending_ = false;
    bool posted_ = false; ///< since the last flush()
};

} // namespace fld::apps

#endif // FLD_APPS_APP_RINGS_H
