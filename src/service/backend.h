/**
 * @file
 * The transport-agnostic face of the tuning service.
 *
 * Transports (the src/net wire server, the in-process examples, test
 * stubs) program against this interface only, so the serving layer
 * and the tuning pipeline evolve independently: a transport hands
 * over each TuneRequest with a callback that its TuneResponse is
 * delivered to, and never learns how models are cached or searches
 * scheduled. TuningService (service.h) is the production
 * implementation.
 */

#ifndef DAC_SERVICE_BACKEND_H
#define DAC_SERVICE_BACKEND_H

#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "service/request.h"

namespace dac::service {

/**
 * Delivers one request's answer: the response, or (with a default
 * response) the error that stopped the request. Called exactly once,
 * on whichever thread settles the request, so it must neither block
 * nor throw.
 */
using TuneReply =
    std::function<void(TuneResponse, std::exception_ptr)>;

/** One request and where its answer goes. */
struct TuneJob
{
    TuneRequest request;
    TuneReply reply;
};

/**
 * The contract: submitBatch() is the one entry point. It calls every
 * job's reply exactly once, and answers every request as if it had
 * been submitted alone, except that identical requests (equal
 * TuneRequest::cacheKey()) in flight together may share one
 * computation, and then every waiter after the first gets the answer
 * with `coalesced` set. Implementations may exploit the batching
 * (shared model fetches, one scheduling unit). A submitBatch() that
 * throws has called no reply and will call none.
 */
class TuningBackend
{
  public:
    virtual ~TuningBackend() = default;

    /** Serve several requests that arrived together (e.g. frames
     *  drained from one connection in one readiness cycle). */
    virtual void submitBatch(std::vector<TuneJob> batch) = 0;

    /** Serve one request (a batch of one); the future resolves when
     *  it is answered. */
    std::future<TuneResponse>
    submit(TuneRequest request)
    {
        auto promise = std::make_shared<std::promise<TuneResponse>>();
        std::future<TuneResponse> answer = promise->get_future();
        std::vector<TuneJob> batch;
        batch.push_back(
            {std::move(request),
             [promise](TuneResponse response, std::exception_ptr error) {
                 if (error)
                     promise->set_exception(error);
                 else
                     promise->set_value(std::move(response));
             }});
        submitBatch(std::move(batch));
        return answer;
    }
};

} // namespace dac::service

#endif // DAC_SERVICE_BACKEND_H
