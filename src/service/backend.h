/**
 * @file
 * The transport-agnostic face of the tuning service.
 *
 * Transports (the src/net wire server, the in-process examples, test
 * stubs) program against this interface only, so the serving layer
 * and the tuning pipeline evolve independently: a transport cares
 * that a TuneRequest eventually yields a TuneResponse future, not how
 * models are cached or searches scheduled. TuningService (service.h)
 * is the production implementation.
 */

#ifndef DAC_SERVICE_BACKEND_H
#define DAC_SERVICE_BACKEND_H

#include <future>
#include <utility>
#include <vector>

#include "service/request.h"

namespace dac::service {

/**
 * The contract: submitBatch() is the one entry point. Futures line up
 * index for index with the batch, and every request is answered as if
 * it had been submitted alone, except that identical requests (equal
 * TuneRequest::cacheKey()) in flight together may share one
 * computation, and then every waiter after the first gets the answer
 * with `coalesced` set. Implementations may exploit the batching
 * (shared model fetches, one scheduling unit). submit() is a batch of
 * one; an override must keep it that.
 */
class TuningBackend
{
  public:
    virtual ~TuningBackend() = default;

    /** Serve several requests that arrived together (e.g. frames
     *  drained from one connection in one readiness cycle). */
    virtual std::vector<std::future<TuneResponse>>
    submitBatch(std::vector<TuneRequest> batch) = 0;

    /** Serve one request; the future resolves when it is answered. */
    virtual std::future<TuneResponse>
    submit(TuneRequest request)
    {
        std::vector<TuneRequest> batch;
        batch.push_back(std::move(request));
        return std::move(submitBatch(std::move(batch)).front());
    }
};

} // namespace dac::service

#endif // DAC_SERVICE_BACKEND_H
