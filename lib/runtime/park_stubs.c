/* Doorbell words and timer slack for the live runtime (transport.ml,
   live.ml).

   A doorbell word is 1 while its node is parked or about to park, 0
   otherwise. Every access is a __ATOMIC_SEQ_CST builtin, the order
   OCaml 5 gives [Atomic] and the ring cursors, so the park protocol's
   store-then-load argument holds across the two languages.

   Off Linux there is no futex: a wait sleeps until its deadline (at
   most 1 ms) and a ring wakes nobody. Parks are bounded, so every node
   still makes progress, only later. */

#define _GNU_SOURCE
#include <stdint.h>
#include <time.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

static inline uint32_t *bell_word(value bells, value off)
{
  return (uint32_t *)Caml_ba_data_val(bells) + Long_val(off);
}

value ci_bell_arm(value bells, value off)
{
  __atomic_store_n(bell_word(bells, off), 1, __ATOMIC_SEQ_CST);
  return Val_unit;
}

value ci_bell_disarm(value bells, value off)
{
  __atomic_store_n(bell_word(bells, off), 0, __ATOMIC_SEQ_CST);
  return Val_unit;
}

/* One load while the receiver is awake; a CAS and a wake when it is
   parked. Only the sender whose CAS wins makes the system call. */
value ci_bell_ring(value bells, value off)
{
  uint32_t *w = bell_word(bells, off);
  uint32_t parked = 1;
  if (__atomic_load_n(w, __ATOMIC_SEQ_CST) == 1
      && __atomic_compare_exchange_n(w, &parked, 0, 0, __ATOMIC_SEQ_CST,
                                     __ATOMIC_SEQ_CST)) {
#ifdef __linux__
    syscall(SYS_futex, w, FUTEX_WAKE_PRIVATE, 1, NULL, NULL, 0);
#endif
  }
  return Val_unit;
}

/* Blocks while the word is 1, until a ring or the absolute
   CLOCK_MONOTONIC [deadline] in ns (max_int: none). A ring that
   already cleared the word makes the wait return at once. */
value ci_bell_wait(value bells, value off, value deadline)
{
  uint32_t *w = bell_word(bells, off);
  intnat d = Long_val(deadline);
  if (d < 0) d = 0;
  caml_enter_blocking_section();
#ifdef __linux__
  struct timespec ts = { d / 1000000000, d % 1000000000 };
  syscall(SYS_futex, w, FUTEX_WAIT_BITSET_PRIVATE, 1,
          d == Max_long ? NULL : &ts, NULL, FUTEX_BITSET_MATCH_ANY);
#else
  struct timespec now;
  clock_gettime(CLOCK_MONOTONIC, &now);
  int64_t rel = (int64_t)d - ((int64_t)now.tv_sec * 1000000000 + now.tv_nsec);
  if (rel > 1000000) rel = 1000000;
  if (rel > 0 && __atomic_load_n(w, __ATOMIC_SEQ_CST) == 1) {
    struct timespec ts = { 0, (long)rel };
    nanosleep(&ts, NULL);
  }
#endif
  caml_leave_blocking_section();
  return Val_unit;
}

/* Timed sleeps of this thread, and of the threads and processes it
   creates afterwards, may overshoot by at most [ns]. */
value ci_set_timer_slack(value ns)
{
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0);
#else
  (void)ns;
#endif
  return Val_unit;
}
