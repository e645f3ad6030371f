#include "serve/protocol.hh"

#include <cstdint>
#include <sstream>

#include "branch/predictor.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/numfmt.hh"

namespace mech::serve {

namespace {

/** Re-serialize a string-or-number "id" member for echoing. */
std::string
serializeId(const json::Value &id)
{
    std::ostringstream oss;
    if (id.isString()) {
        json::writeString(oss, id.string);
    } else if (auto u = id.asU64()) {
        // Whole-number ids echo back as integers ("10", never
        // "1e+01" — clients match on the exact token).
        oss << *u;
    } else {
        json::writeNumber(oss, id.number);
    }
    return oss.str();
}

/**
 * Read a name-list field: a JSON array of strings or a single
 * comma-separated string ("model,sim").  Returns false (with a
 * message) on any other shape.
 */
bool
nameList(const json::Value &root, const std::string &field,
         std::vector<std::string> *out, std::string *error)
{
    const json::Value *v = root.get(field);
    if (!v)
        return true;
    if (v->isString()) {
        for (std::string &token : cli::splitCsv(v->string))
            out->push_back(std::move(token));
        return true;
    }
    if (v->isArray()) {
        for (const json::Value &entry : v->array) {
            if (!entry.isString()) {
                *error = "'" + field +
                         "' entries must be strings";
                return false;
            }
            out->push_back(entry.string);
        }
        return true;
    }
    *error = "'" + field + "' must be a string or array of strings";
    return false;
}

/** Read one unsigned axis member of an explicit-axes point object. */
template <typename T>
bool
axisU(const json::Value &obj, const char *name, T *out,
      std::uint64_t max_value, bool *present, std::string *error)
{
    const json::Value *v = obj.get(name);
    if (!v)
        return true;
    auto u = v->asU64();
    if (!u || *u == 0 || *u > max_value) {
        *error = std::string("bad point axis '") + name + "'";
        return false;
    }
    *out = static_cast<T>(*u);
    *present = true;
    return true;
}

/**
 * Resolve the "point" member: a full DesignPoint::toKey() string or
 * an object of explicit axes, with omitted axes defaulting to the
 * Table 2 default point.
 */
bool
parsePoint(const json::Value &v, DesignPoint *out, std::string *error)
{
    if (v.isString()) {
        auto p = DesignPoint::fromKey(v.string);
        if (!p) {
            *error = "malformed point key '" + v.string +
                     "' (want the full DesignPoint::toKey() form, "
                     "e.g. \"" + defaultDesignPoint().toKey() + "\")";
            return false;
        }
        *out = *p;
        return true;
    }
    if (!v.isObject()) {
        *error = "'point' must be a key string or an axes object";
        return false;
    }

    DesignPoint p = defaultDesignPoint();
    bool present = false;
    for (const auto &member : v.object) {
        const std::string &name = member.first;
        if (name == "l2kb" || name == "assoc" || name == "depth" ||
            name == "width" || name == "freq" || name == "pred" ||
            name == "rob" || name == "iq" || name == "fualu" ||
            name == "fumul" || name == "fumem" || name == "fubr" ||
            name == "buses") {
            continue;
        }
        *error = "unknown point axis '" + name +
                 "' (axes: l2kb, assoc, depth, freq, width, pred, "
                 "rob, iq, fualu, fumul, fumem, fubr, buses)";
        return false;
    }
    constexpr std::uint64_t kU32Max = 0xffffffffull;
    if (!axisU(v, "l2kb", &p.l2KB, ~0ull, &present, error) ||
        !axisU(v, "assoc", &p.l2Assoc, kU32Max, &present, error) ||
        !axisU(v, "depth", &p.depth, kU32Max, &present, error) ||
        !axisU(v, "width", &p.width, kU32Max, &present, error) ||
        !axisU(v, "rob", &p.ooo.robSize, kU32Max, &present, error) ||
        !axisU(v, "iq", &p.ooo.iqSize, kU32Max, &present, error) ||
        !axisU(v, "fualu", &p.ooo.fuAlu, kU32Max, &present, error) ||
        !axisU(v, "fumul", &p.ooo.fuMul, kU32Max, &present, error) ||
        !axisU(v, "fumem", &p.ooo.fuMem, kU32Max, &present, error) ||
        !axisU(v, "fubr", &p.ooo.fuBr, kU32Max, &present, error) ||
        !axisU(v, "buses", &p.ooo.resultBuses, kU32Max, &present,
               error)) {
        return false;
    }
    if (const json::Value *freq = v.get("freq")) {
        if (!freq->isNumber() || !(freq->number > 0.0)) {
            *error = "bad point axis 'freq'";
            return false;
        }
        p.freqGHz = freq->number;
        present = true;
    }
    if (const json::Value *pred = v.get("pred")) {
        if (!pred->isString()) {
            *error = "bad point axis 'pred'";
            return false;
        }
        auto kind = predictorFromKey(pred->string);
        if (!kind) {
            *error = "unknown predictor '" + pred->string + "'";
            return false;
        }
        p.predictor = *kind;
        present = true;
    }
    if (!present) {
        *error = "point axes object names no axis";
        return false;
    }
    *out = p;
    return true;
}

} // namespace

ParseOutcome
parseRequest(const std::string &line)
{
    ParseOutcome out;
    std::string error;
    std::optional<json::Value> root = json::parse(line, &error);
    if (!root) {
        out.error = "parse error: " + error;
        return out;
    }
    if (!root->isObject()) {
        out.error = "request must be a JSON object";
        return out;
    }

    // Recover the id first so even a bad request echoes it.
    if (const json::Value *id = root->get("id")) {
        if (id->isString() || id->isNumber())
            out.idJson = serializeId(*id);
        else {
            out.error = "'id' must be a string or number";
            return out;
        }
    }

    const json::Value *type = root->get("type");
    if (!type || !type->isString()) {
        out.error = "missing or non-string 'type'";
        return out;
    }

    ServeRequest req;
    req.idJson = out.idJson;
    if (type->string == "eval") {
        req.type = RequestType::Eval;
    } else if (type->string == "batch") {
        req.type = RequestType::Batch;
    } else if (type->string == "info") {
        req.type = RequestType::Info;
    } else if (type->string == "stats") {
        req.type = RequestType::Stats;
    } else if (type->string == "shutdown") {
        req.type = RequestType::Shutdown;
    } else {
        out.error = "unknown request type '" + type->string +
                    "' (types: eval, batch, info, stats, shutdown)";
        return out;
    }

    if (!nameList(*root, "bench", &req.bench, &out.error) ||
        !nameList(*root, "backends", &req.backends, &out.error) ||
        !nameList(*root, "objectives", &req.objectives, &out.error)) {
        return out;
    }

    if (req.type == RequestType::Eval) {
        const json::Value *point = root->get("point");
        if (!point) {
            out.error = "eval request needs a 'point'";
            return out;
        }
        DesignPoint p;
        if (!parsePoint(*point, &p, &out.error))
            return out;
        req.point = p;
    } else if (req.type == RequestType::Batch) {
        const json::Value *space = root->get("space");
        if (!space || !space->isString() || space->string.empty()) {
            out.error = "batch request needs a non-empty 'space'";
            return out;
        }
        req.space = space->string;
    }

    out.request = std::move(req);
    return out;
}

bool
isBlank(const std::string &line)
{
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

std::string
responseHead(const std::string &id_json, const std::string &type)
{
    std::string head =
        "{\"schema_version\": " + std::to_string(kServeSchemaVersion);
    if (!id_json.empty())
        head += ", \"id\": " + id_json;
    head += ", \"type\": \"" + type + "\"";
    return head;
}

std::string
errorResponse(const std::string &id_json, const std::string &message)
{
    std::ostringstream oss;
    oss << responseHead(id_json, "error") << ", \"error\": ";
    json::writeString(oss, message);
    oss << "}";
    return oss.str();
}

std::string
codedErrorResponse(const std::string &id_json, const std::string &code,
                   const std::string &message)
{
    std::ostringstream oss;
    oss << responseHead(id_json, "error") << ", \"code\": ";
    json::writeString(oss, code);
    oss << ", \"error\": ";
    json::writeString(oss, message);
    oss << "}";
    return oss.str();
}

} // namespace mech::serve
