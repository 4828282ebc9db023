#include "src/sanitize/document.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "src/util/check.h"
#include "src/util/prng.h"

namespace nymix {

namespace {

// PDF string values keep to a paren-free alphabet to sidestep escaping.
std::string PdfEscape(std::string text) {
  std::replace(text.begin(), text.end(), '(', '[');
  std::replace(text.begin(), text.end(), ')', ']');
  return text;
}

void AppendInfoField(std::string& dict, const char* key,
                     const std::optional<std::string>& value) {
  if (value.has_value()) {
    dict += std::string(" /") + key + " (" + PdfEscape(*value) + ")";
  }
}

// Extracts "(value)" for "/Key (value)" from a dictionary body.
std::optional<std::string> DictString(const std::string& dict, const std::string& key) {
  size_t pos = dict.find("/" + key + " (");
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  size_t start = dict.find('(', pos) + 1;
  size_t end = dict.find(')', start);
  if (end == std::string::npos) {
    return std::nullopt;
  }
  return dict.substr(start, end - start);
}

std::optional<std::string> StreamBody(const std::string& object) {
  size_t start = object.find("stream\n");
  if (start == std::string::npos) {
    return std::nullopt;
  }
  start += 7;
  size_t end = object.find("\nendstream", start);
  if (end == std::string::npos) {
    return std::nullopt;
  }
  return object.substr(start, end - start);
}

}  // namespace

bool LooksLikePdf(ByteSpan data) {
  return data.size() >= 5 && std::memcmp(data.data(), "%PDF-", 5) == 0;
}

Bytes EncodePdf(const PdfFile& pdf) {
  std::string out = "%PDF-1.4\n";
  int next_object = 1;
  out += std::to_string(next_object++) + " 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n";
  out += std::to_string(next_object++) + " 0 obj\n<< /Type /Pages /Count " +
         std::to_string(pdf.pages.size()) + " >>\nendobj\n";

  int info_object = 0;
  if (!pdf.info.Empty()) {
    info_object = next_object++;
    std::string dict = "<<";
    AppendInfoField(dict, "Title", pdf.info.title);
    AppendInfoField(dict, "Author", pdf.info.author);
    AppendInfoField(dict, "Creator", pdf.info.creator);
    AppendInfoField(dict, "Producer", pdf.info.producer);
    AppendInfoField(dict, "CreationDate", pdf.info.creation_date);
    dict += " >>";
    out += std::to_string(info_object) + " 0 obj\n" + dict + "\nendobj\n";
  }

  for (const std::string& page : pdf.pages) {
    out += std::to_string(next_object++) +
           " 0 obj\n<< /Type /Page >>\nstream\n" + page + "\nendstream\nendobj\n";
  }
  for (const std::string& hidden : pdf.hidden_objects) {
    out += std::to_string(next_object++) +
           " 0 obj\n<< /Type /XObject /Subtype /Ghost >>\nstream\n" + hidden +
           "\nendstream\nendobj\n";
  }

  out += "trailer\n<< /Root 1 0 R";
  if (info_object != 0) {
    out += " /Info " + std::to_string(info_object) + " 0 R";
  }
  out += " >>\n%%EOF\n";
  return BytesFromString(out);
}

Result<PdfFile> DecodePdf(ByteSpan data) {
  if (!LooksLikePdf(data)) {
    return DataLossError("missing %PDF header");
  }
  std::string text = StringFromBytes(data);
  if (text.find("%%EOF") == std::string::npos) {
    return DataLossError("missing %%EOF");
  }
  PdfFile pdf;

  // Locate the Info object via the trailer reference.
  size_t trailer = text.find("trailer");
  std::string info_dict;
  if (trailer != std::string::npos) {
    std::string trailer_text = text.substr(trailer);
    size_t info_ref = trailer_text.find("/Info ");
    if (info_ref != std::string::npos) {
      // Untrusted bytes: the object number must be a digit run that fits.
      const char* digits = trailer_text.data() + info_ref + 6;
      unsigned object_number = 0;
      std::from_chars_result parsed =
          std::from_chars(digits, trailer_text.data() + trailer_text.size(), object_number);
      if (parsed.ec != std::errc()) {
        return DataLossError("malformed /Info object number");
      }
      std::string marker = "\n" + std::to_string(object_number) + " 0 obj\n";
      size_t object_start = text.find(marker);
      if (object_start == std::string::npos) {
        return DataLossError("dangling /Info reference");
      }
      size_t object_end = text.find("endobj", object_start);
      info_dict = text.substr(object_start, object_end - object_start);
      pdf.info.title = DictString(info_dict, "Title");
      pdf.info.author = DictString(info_dict, "Author");
      pdf.info.creator = DictString(info_dict, "Creator");
      pdf.info.producer = DictString(info_dict, "Producer");
      pdf.info.creation_date = DictString(info_dict, "CreationDate");
    }
  }

  // Walk every object; classify pages vs hidden streams.
  size_t cursor = 0;
  while (true) {
    size_t object_start = text.find(" 0 obj\n", cursor);
    if (object_start == std::string::npos) {
      break;
    }
    size_t object_end = text.find("endobj", object_start);
    if (object_end == std::string::npos) {
      return DataLossError("unterminated object");
    }
    std::string object = text.substr(object_start, object_end - object_start);
    cursor = object_end + 6;
    if (object.find("/Type /Page >>") != std::string::npos) {
      auto body = StreamBody(object);
      if (!body.has_value()) {
        return DataLossError("page without content stream");
      }
      pdf.pages.push_back(*body);
    } else if (object.find("/Type /XObject") != std::string::npos) {
      auto body = StreamBody(object);
      if (body.has_value()) {
        pdf.hidden_objects.push_back(*body);
      }
    }
  }
  return pdf;
}

Image RasterizeTextBlock(const std::string& text) {
  constexpr uint32_t kGlyphWidth = 6;
  constexpr uint32_t kGlyphHeight = 10;
  constexpr uint32_t kColumns = 64;
  uint32_t rows = static_cast<uint32_t>(text.size() + kColumns - 1) / kColumns;
  rows = std::max<uint32_t>(rows, 1);
  Image image = Image::Solid(kColumns * kGlyphWidth, rows * (kGlyphHeight + 2), 250, 250, 245);
  for (size_t i = 0; i < text.size(); ++i) {
    uint32_t column = static_cast<uint32_t>(i % kColumns);
    uint32_t row = static_cast<uint32_t>(i / kColumns);
    uint64_t glyph = Mix64(static_cast<uint8_t>(text[i]));
    for (uint32_t gy = 0; gy < kGlyphHeight; ++gy) {
      for (uint32_t gx = 0; gx < kGlyphWidth; ++gx) {
        if ((glyph >> ((gy * kGlyphWidth + gx) % 60)) & 1) {
          uint8_t* pixel =
              image.PixelAt(column * kGlyphWidth + gx, row * (kGlyphHeight + 2) + gy);
          pixel[0] = 20;
          pixel[1] = 20;
          pixel[2] = 30;
        }
      }
    }
  }
  return image;
}

std::vector<Image> RasterizePdf(const PdfFile& pdf) {
  std::vector<Image> out;
  out.reserve(pdf.pages.size());
  for (const std::string& page : pdf.pages) {
    out.push_back(RasterizeTextBlock(page));
  }
  return out;
}

// ------------------------------------------------------------------ DOC

namespace {

constexpr uint8_t kDocMagic[4] = {'D', 'O', 'C', 'L'};

void AppendOptionalString(Bytes& out, const std::optional<std::string>& value) {
  out.push_back(value.has_value() ? 1 : 0);
  if (value.has_value()) {
    AppendLengthPrefixed(out, BytesFromString(*value));
  }
}

Result<std::optional<std::string>> ReadOptionalString(ByteSpan data, size_t& offset) {
  if (offset >= data.size()) {
    return DataLossError("truncated optional string");
  }
  uint8_t present = data[offset++];
  if (present == 0) {
    return std::optional<std::string>();
  }
  NYMIX_ASSIGN_OR_RETURN(Bytes value, ReadLengthPrefixed(data, offset));
  return std::optional<std::string>(StringFromBytes(value));
}

}  // namespace

bool LooksLikeDoc(ByteSpan data) {
  return data.size() >= 4 && std::memcmp(data.data(), kDocMagic, 4) == 0;
}

Bytes EncodeDoc(const DocFile& doc) {
  Bytes out(kDocMagic, kDocMagic + 4);
  AppendU16(out, 1);  // version
  AppendOptionalString(out, doc.properties.creator);
  AppendOptionalString(out, doc.properties.company);
  AppendOptionalString(out, doc.properties.last_modified_by);
  AppendU32(out, doc.properties.revision);
  AppendU32(out, doc.properties.editing_minutes);
  AppendU32(out, static_cast<uint32_t>(doc.paragraphs.size()));
  for (const std::string& paragraph : doc.paragraphs) {
    AppendLengthPrefixed(out, BytesFromString(paragraph));
  }
  AppendU32(out, static_cast<uint32_t>(doc.hidden_runs.size()));
  for (const std::string& hidden : doc.hidden_runs) {
    AppendLengthPrefixed(out, BytesFromString(hidden));
  }
  return out;
}

Result<DocFile> DecodeDoc(ByteSpan data) {
  if (!LooksLikeDoc(data)) {
    return DataLossError("missing DOCL magic");
  }
  size_t offset = 4;
  NYMIX_ASSIGN_OR_RETURN(uint16_t version, ReadU16(data, offset));
  if (version != 1) {
    return DataLossError("unsupported DOCL version");
  }
  DocFile doc;
  NYMIX_ASSIGN_OR_RETURN(doc.properties.creator, ReadOptionalString(data, offset));
  NYMIX_ASSIGN_OR_RETURN(doc.properties.company, ReadOptionalString(data, offset));
  NYMIX_ASSIGN_OR_RETURN(doc.properties.last_modified_by, ReadOptionalString(data, offset));
  NYMIX_ASSIGN_OR_RETURN(doc.properties.revision, ReadU32(data, offset));
  NYMIX_ASSIGN_OR_RETURN(doc.properties.editing_minutes, ReadU32(data, offset));
  NYMIX_ASSIGN_OR_RETURN(uint32_t paragraph_count, ReadU32(data, offset));
  for (uint32_t i = 0; i < paragraph_count; ++i) {
    NYMIX_ASSIGN_OR_RETURN(Bytes paragraph, ReadLengthPrefixed(data, offset));
    doc.paragraphs.push_back(StringFromBytes(paragraph));
  }
  NYMIX_ASSIGN_OR_RETURN(uint32_t hidden_count, ReadU32(data, offset));
  for (uint32_t i = 0; i < hidden_count; ++i) {
    NYMIX_ASSIGN_OR_RETURN(Bytes hidden, ReadLengthPrefixed(data, offset));
    doc.hidden_runs.push_back(StringFromBytes(hidden));
  }
  return doc;
}

std::vector<Image> RasterizeDoc(const DocFile& doc) {
  std::vector<Image> out;
  out.reserve(doc.paragraphs.size());
  for (const std::string& paragraph : doc.paragraphs) {
    out.push_back(RasterizeTextBlock(paragraph));
  }
  return out;
}

}  // namespace nymix
