/* Monotonic nanosecond clock and this thread's CPU clock for the DSM
   client benchmark.  Both are [@@noalloc] with untagged results, so a
   timing span costs two vDSO clock reads and no allocation.  The thread
   CPU clock is a system call (a few hundred ns), so the benchmark reads it
   only around whole [Live.step]s. */

#include <time.h>
#include <caml/mlvalues.h>

intnat dsmb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value dsmb_now_ns_byte(value unit) { return Val_long(dsmb_now_ns(unit)); }

/* CPU time this thread has used: excludes time blocked in a poll and time
   spent runnable but descheduled. */
intnat dsmb_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value dsmb_thread_cpu_ns_byte(value unit)
{
  return Val_long(dsmb_thread_cpu_ns(unit));
}
