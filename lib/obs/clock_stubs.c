/* The one clock every wall-time measurement in the library reads:
   CLOCK_MONOTONIC in nanoseconds, immune to wall-clock steps. */
#include <time.h>
#include <caml/mlvalues.h>

value splice_obs_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
