/* SIGPROF sampling profiler, loaded with LD_PRELOAD: every
   SPLICE_PROF_US microseconds (default 50) of wall-clock time a
   CLOCK_MONOTONIC timer interrupts the process and the handler stores the
   interrupted instruction pointer. At exit the samples and a copy of
   /proc/self/maps go to SPLICE_PROF_OUT (default prof.<pid>.txt), which
   symbolize.py turns into a flat profile. x86-64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)

static unsigned long samples[MAX_SAMPLES];
static volatile int n_samples;
static timer_t timer;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
  (void)sig; (void)si;
  int i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES)
    samples[i] = (unsigned long)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void prof_start(void) {
  const char *us = getenv("SPLICE_PROF_US");
  long period_ns = 1000L * (us ? atol(us) : 50);
  if (period_ns <= 0) period_ns = 50000;
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent ev = {0};
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) return;
  struct timespec every = {period_ns / 1000000000L, period_ns % 1000000000L};
  struct itimerspec it = {every, every};
  timer_settime(timer, 0, &it, NULL);
}

__attribute__((destructor)) static void prof_stop(void) {
  timer_delete(timer);
  char path[256];
  const char *out = getenv("SPLICE_PROF_OUT");
  if (out) snprintf(path, sizeof path, "%s", out);
  else snprintf(path, sizeof path, "prof.%d.txt", (int)getpid());
  FILE *f = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
  if (!f || !maps) return;
  char line[4096];
  fputs("# maps\n", f);
  while (fgets(line, sizeof line, maps)) fputs(line, f);
  fclose(maps);
  int n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
  fprintf(f, "# samples %d\n", n);
  for (int i = 0; i < n; i++) fprintf(f, "%lx\n", samples[i]);
  fclose(f);
}
