#include "ctrl/knobs.h"

namespace taureau::ctrl {

void AttachSamplerControl(ConfigService* service, obs::SamplingPipeline* pipe,
                          const std::string& scope) {
  if (service == nullptr || pipe == nullptr) return;
  (void)service->EnsureDefined(
      {.key = "obs.sampler.head_rate",
       .default_value = ConfigValue::Double(pipe->head_rate()),
       .min_value = 0.0,
       .max_value = 1.0,
       .description =
           "fraction of healthy traces kept by head sampling; tail "
           "retention (errors/faults/slow) is unaffected"});
  service->Subscribe(
      "obs.sampler.head_rate",
      [pipe](const ConfigUpdate& u) {
        pipe->set_head_rate(u.value.AsNumber());
      },
      scope);
}

}  // namespace taureau::ctrl
