/**
 * @file
 * Serialization of trained models.
 *
 * ModelIo is the single befriended door into the ml classes' private
 * state: RegressionTree nodes, GradientBoost trees and baselines,
 * HierarchicalModel members and the LogTarget wrapper. Width and byte
 * order come from support/bytes.h; this file owns field ORDER and the
 * structural validation run on load.
 *
 * Two invariants the encoders/decoders must keep:
 *
 *  - Bit-exactness: every double travels as its IEEE-754 bit pattern,
 *    so a reloaded model predicts bit-for-bit like the original. The
 *    compiled FlatEnsemble is not stored: it is a pure function of the
 *    model, and the snapshot decoder derives it with Model::compile().
 *
 *  - Determinism: encoding the same model twice yields the same bytes
 *    (no timestamps, no pointers, no map iteration), which is what
 *    makes the snapshot-of-reload idempotence test meaningful.
 *
 * Decoders trust nothing: the payload CRC has already passed when they
 * run, but a decoded model must be one that compile() and both predict
 * paths handle without asserting or blowing up. Every index the
 * assert-free walks will dereference is bounds-checked here, and so is
 * the shape compile() assumes:
 *
 *  - every tree is a tree: split links point forward and in range, and
 *    every node but the root is the child of exactly one split (a
 *    shared child makes compile's BFS copy whole subtrees, which grows
 *    exponentially and breaks the adjacent-children layout);
 *  - every booster, standalone or as an HM member, has at least one
 *    tree, and every HM at least one member;
 *  - a log-target wrapper never wraps another one.
 */

#ifndef DAC_PERSIST_MODEL_IO_H
#define DAC_PERSIST_MODEL_IO_H

#include <memory>

#include "ml/model.h"
#include "persist/bytes.h"

namespace dac::ml {
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

    /**
     * Rebuild a model written by writeModel. Throws DecodeError
     * (Corrupt) for any structure the rules above reject, so
     * Model::compile() on the result never asserts.
     */
    static std::unique_ptr<ml::Model> readModel(ByteReader &r);

  private:
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
};

} // namespace dac::persist

#endif // DAC_PERSIST_MODEL_IO_H
