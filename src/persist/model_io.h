/**
 * @file
 * Serialization of trained models and their compiled form.
 *
 * ModelIo is the single befriended door into the ml classes' private
 * state: RegressionTree nodes, GradientBoost trees and baselines,
 * HierarchicalModel members, the LogTarget wrapper, the scalers, and
 * every FlatEnsemble SoA array including the depth-sorted blocked
 * layout. Width and byte order come from support/bytes.h; this file
 * owns field ORDER and the structural validation run on load.
 *
 * Two invariants the encoders/decoders must keep:
 *
 *  - Bit-exactness: every double travels as its IEEE-754 bit pattern
 *    and the compiled FlatEnsemble is stored verbatim rather than
 *    recompiled on load, so a reloaded model reproduces the original's
 *    predictions bit-for-bit through every walk (the derived `packed`
 *    mirror is rebuilt from the stored SoA arrays — it is a pure
 *    re-interleaving, not arithmetic).
 *
 *  - Determinism: encoding the same model twice yields the same bytes
 *    (no timestamps, no pointers, no map iteration), which is what
 *    makes the snapshot-of-reload idempotence test meaningful.
 *
 * Decoders trust nothing: the payload CRC has already passed when they
 * run, but every index that will later be dereferenced on the predict
 * hot path (which runs assert-free by design) is bounds-checked here
 * once, at load time. See validateFlat() in model_io.cc for the full
 * invariant list.
 */

#ifndef DAC_PERSIST_MODEL_IO_H
#define DAC_PERSIST_MODEL_IO_H

#include <memory>

#include "ml/model.h"
#include "ml/scaler.h"
#include "persist/bytes.h"

namespace dac::ml {
class FlatEnsemble;
class GradientBoost;
class HierarchicalModel;
class RegressionTree;
}

namespace dac::persist {

/**
 * Static encode/decode entry points for every persistable ml type.
 * A struct (not a namespace) so the ml classes can grant friendship
 * with one declaration.
 */
struct ModelIo
{
    /**
     * Serialize a trained model, tagged by concrete kind. Supported:
     * RegressionTree, GradientBoost, HierarchicalModel, and
     * LogTargetModel wrapping any of these. Throws DecodeError
     * (UnsupportedModel) for other kinds — e.g. the SVM/ANN baselines,
     * which the serving stack never caches.
     */
    static void writeModel(ByteWriter &w, const ml::Model &model);

    /** Rebuild a model written by writeModel. */
    static std::unique_ptr<ml::Model> readModel(ByteReader &r);

    /** Serialize a compiled ensemble, all SoA arrays verbatim. */
    static void writeFlat(ByteWriter &w, const ml::FlatEnsemble &flat);

    /** Rebuild (and validate) a compiled ensemble. */
    static std::unique_ptr<ml::FlatEnsemble> readFlat(ByteReader &r);

    /** Serialize a fitted feature scaler. */
    static void writeScaler(ByteWriter &w, const ml::Scaler &scaler);
    static ml::Scaler readScaler(ByteReader &r);

    /** Serialize a fitted target scaler. */
    static void writeTargetScaler(ByteWriter &w,
                                  const ml::TargetScaler &scaler);
    static ml::TargetScaler readTargetScaler(ByteReader &r);

  private:
    static constexpr int kMaxWrapDepth = 8;

    static std::unique_ptr<ml::Model> readModelTagged(ByteReader &r,
                                                      int depth);

    // Untagged bodies shared between the tagged entry points and the
    // containers that nest them (HM members hold GradientBoosts).
    // Members rather than file-local helpers because they touch the
    // ml classes' private state through the friendship above.
    static void writeTreeBody(ByteWriter &w, const ml::RegressionTree &t);
    static ml::RegressionTree readTreeBody(ByteReader &r);
    static void writeGbrtBody(ByteWriter &w, const ml::GradientBoost &m);
    static std::unique_ptr<ml::GradientBoost> readGbrtBody(ByteReader &r);
    static void writeHmBody(ByteWriter &w, const ml::HierarchicalModel &m);
    static std::unique_ptr<ml::HierarchicalModel> readHmBody(ByteReader &r);
    static void validateFlat(const ml::FlatEnsemble &flat);
};

} // namespace dac::persist

#endif // DAC_PERSIST_MODEL_IO_H
