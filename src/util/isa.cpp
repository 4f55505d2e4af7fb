#include "util/isa.hpp"

#include <cstdlib>

#include "util/common.hpp"

namespace turb::util {

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

Isa parse_isa(const std::string& spec) {
  if (spec == "scalar") return Isa::kScalar;
  if (spec == "avx2") {
    TURB_CHECK_MSG(cpu_supports_avx2(),
                   "TURBFNO_ISA=avx2 requested but this CPU/build has no "
                   "AVX2+FMA support");
    return Isa::kAvx2;
  }
  TURB_CHECK_MSG(spec == "auto" || spec.empty(),
                 "unknown ISA '" << spec << "' (want auto|scalar|avx2)");
  return cpu_supports_avx2() ? Isa::kAvx2 : Isa::kScalar;
}

const char* isa_name(Isa isa) noexcept {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

namespace detail {

std::atomic<int> g_active_isa{-1};

namespace {

void publish(Isa isa) {
  obs::gauge("isa/active").set(static_cast<double>(static_cast<int>(isa)));
}

}  // namespace

Isa resolve_isa() {
  const char* env = std::getenv("TURBFNO_ISA");
  const Isa isa = parse_isa(env == nullptr ? std::string("auto") : env);
  // Last resolution wins if two threads race here — both compute the same
  // value (the env cannot change mid-race), so the store is idempotent.
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  publish(isa);
  return isa;
}

}  // namespace detail

void set_active_isa(Isa isa) {
  TURB_CHECK_MSG(isa != Isa::kAvx2 || cpu_supports_avx2(),
                 "set_active_isa(avx2) on a CPU/build without AVX2+FMA");
  detail::g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  detail::publish(isa);
}

ScopedIsa::ScopedIsa(Isa isa)
    : previous_(detail::g_active_isa.load(std::memory_order_relaxed)) {
  set_active_isa(isa);
}

ScopedIsa::~ScopedIsa() {
  detail::g_active_isa.store(previous_, std::memory_order_relaxed);
  if (previous_ >= 0) detail::publish(static_cast<Isa>(previous_));
}

obs::Counter& gemm_dispatch_counter(Isa isa) {
  static obs::Counter& scalar = obs::counter("isa/gemm_dispatch_scalar");
  static obs::Counter& avx2 = obs::counter("isa/gemm_dispatch_avx2");
  return isa == Isa::kAvx2 ? avx2 : scalar;
}

obs::Counter& fft_dispatch_counter(Isa isa) {
  static obs::Counter& scalar = obs::counter("isa/fft_dispatch_scalar");
  static obs::Counter& avx2 = obs::counter("isa/fft_dispatch_avx2");
  return isa == Isa::kAvx2 ? avx2 : scalar;
}

obs::Counter& act_dispatch_counter(Isa isa) {
  static obs::Counter& scalar = obs::counter("isa/act_dispatch_scalar");
  static obs::Counter& avx2 = obs::counter("isa/act_dispatch_avx2");
  return isa == Isa::kAvx2 ? avx2 : scalar;
}

}  // namespace turb::util
